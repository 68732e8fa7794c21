import argparse
import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoplan import bench, cli, fixtures, planner
from demoplan.actions import dump_label_stream, keys_from_names, synthesize_stream
from demoplan.cli import build_parser, main
from demoplan.planner import load_plan, validate_plan
from demoplan.sim import _SUCCESS, SimConfig, TaskSpec


def run_cli(*argv):
    return main(list(argv))


def assert_parse_error(code, capsys, quiet=False):
    """Exit 2 with exactly one error line on stderr, and nothing on stdout if quiet; returns that line."""
    out, err = capsys.readouterr()
    assert not (quiet and out), out
    assert code == 2
    assert err.startswith("demoplan: error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture()
def pick_place_plan(tmp_path):
    out = tmp_path / "plan.json"
    code = run_cli(
        "plan",
        "--labels", str(fixtures.labels_path("pick_place")),
        "--masks", str(fixtures.masks_path("pick_place")),
        "--out", str(out),
    )
    assert code == 0
    return out


class TestFilter:
    def test_pick_place_fixture(self, capsys, tmp_path):
        out = tmp_path / "keys.json"
        code = run_cli("filter", "--labels", str(fixtures.labels_path("pick_place")), "--out", str(out))
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == ["idle", "move", "pick", "move", "place"]
        assert json.loads(out.read_text()) == printed

    def test_single_frame_file(self, capsys, tmp_path):
        labels = tmp_path / "one.jsonl"
        labels.write_text(json.dumps({"frame": 0, "label": "push"}) + "\n")
        assert run_cli("filter", "--labels", str(labels)) == 0
        assert json.loads(capsys.readouterr().out) == ["push"]

    def test_unknown_token_exits_2_citing_line(self, capsys, tmp_path):
        labels = tmp_path / "bad.jsonl"
        rows = [json.dumps({"frame": i, "label": "idle"}) for i in range(6)]
        rows.append(json.dumps({"frame": 6, "label": "grab"}))
        labels.write_text("\n".join(rows) + "\n")
        assert run_cli("filter", "--labels", str(labels)) == 2
        err = capsys.readouterr().err
        assert "line 7" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert run_cli("filter", "--labels", str(tmp_path / "nope.jsonl")) == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"frame": 1, "label": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"frame": ' + "1" * 5_000 + ', "label": "idle"}',
            '{"frame": 1, "label": "\udcff"}',  # the byte 0xff, which is not UTF-8
            '{"frame": 1, "label": "idle", "label": "pick"}',
        ],
        ids=["nested", "long_int", "invalid_utf8", "repeated_key"],
    )
    def test_unreadable_line_exits_2_citing_line(self, capsys, tmp_path, line):
        # raw text: json.dumps cannot write any of these lines
        labels = tmp_path / "bad.jsonl"
        text = json.dumps({"frame": 0, "label": "idle"}) + "\n" + line + "\n"
        labels.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert "line 2: " in assert_parse_error(run_cli("filter", "--labels", str(labels)), capsys)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reads_as_the_file_does(self, capsys, tmp_path):
        keys = keys_from_names(["idle", "move", "pick", "move", "place", "push", "tilt", "rotate"])
        labels = tmp_path / "labels.jsonl"
        dump_label_stream(synthesize_stream(keys, 150, 0.1, seed=4), labels)
        assert run_cli("filter", "--labels", str(labels)) == 0
        from_file = capsys.readouterr().out
        fifo = tmp_path / "labels.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(labels.read_bytes(),), daemon=True)
        writer.start()
        assert run_cli("filter", "--labels", str(fifo)) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == from_file
        assert json.loads(from_file)[:3] == ["idle", "move", "pick"]

    def test_window_width_flag(self, capsys, tmp_path):
        labels = tmp_path / "short.jsonl"
        rows = [json.dumps({"frame": i, "label": l}) for i, l in enumerate(["idle", "pick", "idle", "idle"])]
        labels.write_text("\n".join(rows) + "\n")
        assert run_cli("filter", "--labels", str(labels), "--window-width", "3") == 0
        assert json.loads(capsys.readouterr().out) == ["idle"]

    def test_invalid_window_width_exits_2(self, capsys):
        code = run_cli("filter", "--labels", str(fixtures.labels_path("pick_place")), "--window-width", "0")
        assert code == 2
        assert "window width" in capsys.readouterr().err


class TestSharedParser:
    """main parses every call with one parser built per process; no call sees another's arguments."""

    @staticmethod
    def captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
        return code, out.getvalue(), err.getvalue()

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_print_what_each_prints_alone(self, tmp_path):
        labels = tmp_path / "labels.jsonl"
        frames = ["idle"] * 4 + ["pick"] * 3 + ["idle"] * 4
        labels.write_text("".join(json.dumps({"frame": i, "label": l}) + "\n" for i, l in enumerate(frames)))
        first_out = tmp_path / "first.json"
        plan = ["plan", "--labels", str(fixtures.labels_path("pick_place"))]
        plan += ["--masks", str(fixtures.masks_path("pick_place"))]
        calls = [
            [*plan, "--out", str(first_out)],
            plan,
            ["filter", "--labels", str(labels), "--window-width", "5"],
            ["filter", "--window-width", "five"],  # argparse refuses it
            ["filter", "--labels", str(labels)],
        ]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append(self.captured(argv))
        first_out.unlink()
        build_parser.cache_clear()
        shared = [self.captured(calls[0])]
        first_out.unlink()
        shared += [self.captured(argv) for argv in calls[1:]]
        assert shared == alone
        assert not first_out.exists()
        assert alone[3][0] == "SystemExit(2)"
        assert alone[2][1] == '["idle", "pick", "idle"]\n' and alone[4][1] == '["idle"]\n'


def test_each_subcommand_keeps_its_options():
    """Every subcommand's option strings, each with its default and whether it is required."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s: (a.default, a.required) for a in p._actions for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    helps = {"-h": (argparse.SUPPRESS, False), "--help": (argparse.SUPPRESS, False)}
    knowledge = {"--corpus": (str(fixtures.corpus_path()), False), "--lexicon": (str(fixtures.lexicon_path()), False)}
    pipeline = {**knowledge, "--calibration": (str(fixtures.calibration_path()), False), "--window-width": (15, False)}
    assert options == {
        "filter": {**helps, "--labels": (None, True), "--window-width": (15, False), "--out": (None, False)},
        "plan": {**helps, **pipeline, "--labels": (None, True), "--masks": (None, True), "--out": (None, False)},
        "run": {**helps, "--plan": (None, True), "--scenario": (None, True), "--out": (None, False)},
        "bench": {
            **helps,
            **pipeline,
            "--trials": (10, False),
            "--noise": (0.0, False),
            "--seed": (0, False),
            "--out": (None, False),
        },
        "corpus": {**helps, **knowledge},
    }


def test_readme_synopsis_shows_each_numeric_default():
    """Every [--opt NUMBER] in README's CLI block is that subcommand's parser default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shown = []
    for line in block.splitlines():
        if line.startswith("demoplan "):
            command = line.split()[1]
        for option, number in re.findall(r"\[(--[a-z-]+) ([0-9.]+)\]", line):
            shown.append((command, option, float(number)))
    assert len(shown) == 6, shown
    defaults = [(c, o, sub.choices[c]._option_string_actions[o].default) for c, o, _ in shown]
    assert shown == defaults


class TestPlan:
    def test_pick_place_binds_banana_into_box(self, pick_place_plan):
        steps = json.loads(pick_place_plan.read_text())
        assert [s["primitive"] for s in steps] == ["idle", "move", "pick", "move", "place"]
        assert steps[2]["primary"]["class"] == "banana"
        assert steps[4]["target"]["class"] == "plastic-box"

    def test_push_scene_missing_second_object_exits_3(self, capsys, tmp_path):
        masks = tmp_path / "masks.json"
        masks.write_text(
            json.dumps({"image_size": [600, 600], "objects": [{"class": "grape", "rle_rows": [[200, 195, 11]]}]})
        )
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("push_away")),
            "--masks", str(masks),
        )
        assert code == 3
        assert "step 2" in capsys.readouterr().err

    def test_out_file_holds_the_printed_plan(self, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(fixtures.masks_path("pick_place")),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_out_writes_through_dump_plan(self, capsys, tmp_path, monkeypatch):
        """plan --out writes by planner.dump_plan, once; without --out it is not called."""
        calls = []

        def counted(plan, path):
            calls.append(path)
            return planner.dump_plan(plan, path)

        monkeypatch.setattr(cli, "dump_plan", counted)
        argv = ["plan", "--labels", str(fixtures.labels_path("pick_place")), "--masks", str(fixtures.masks_path("pick_place"))]
        assert run_cli(*argv) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert calls == []
        out = tmp_path / "plan.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert calls == [str(out)]
        assert capsys.readouterr().out.encode("utf-8") == printed == out.read_bytes()
        code = run_cli(*argv, "--out", str(tmp_path / "missing" / "plan.json"))
        assert str(tmp_path / "missing") in assert_parse_error(code, capsys, quiet=True)
        assert len(calls) == 2

    def test_validation_violation_exits_3(self, capsys, tmp_path):
        labels = tmp_path / "labels.jsonl"
        names = ["idle", "move", "pick", "move", "pick"]
        labels.write_text("".join(json.dumps({"frame": i, "label": names[i // 30]}) + "\n" for i in range(30 * len(names))))
        code = run_cli("plan", "--labels", str(labels), "--masks", str(fixtures.masks_path("pick_place")))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "demoplan: error: validation: step 4: pick while holding\n"

    def test_task_2_plan_validates(self, capsys, tmp_path):
        out = tmp_path / "plan2.json"
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("composite_2")),
            "--masks", str(fixtures.masks_path("composite_2")),
            "--out", str(out),
        )
        assert code == 0
        steps = json.loads(out.read_text())
        assert [s["primitive"] for s in steps] == [
            "idle", "move", "rotate", "pick", "move", "tilt", "pick", "move",
        ]

    @pytest.mark.parametrize("task", fixtures.TASKS)
    def test_a_written_plan_validates_when_loaded_back(self, tmp_path, task):
        """A loaded plan's containers are unknown, not empty, so no place or tilt target is refused."""
        out = tmp_path / "plan.json"
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path(task)),
            "--masks", str(fixtures.masks_path(task)),
            "--out", str(out),
        )
        assert code == 0
        plan = load_plan(out)
        assert plan.containers is None and validate_plan(plan) == []

    @pytest.mark.parametrize("listed", [True, False])
    def test_a_place_target_is_a_container_when_the_lexicon_lists_it(self, capsys, tmp_path, listed):
        """The pick_place box labelled basket: plan and run take it once the lexicon's containers name it."""
        files = {}
        for name, path in (("masks", fixtures.masks_path("pick_place")), ("scenario", fixtures.scenario_path("pick_place"))):
            files[name] = tmp_path / path.name
            files[name].write_text(path.read_text().replace("plastic-box", "basket"))
        files["corpus"] = tmp_path / "corpus.txt"
        files["corpus"].write_text(fixtures.corpus_path().read_text() + "put the banana into the basket\n")
        lexicon = json.loads(fixtures.lexicon_path().read_text())
        lexicon["objects"].append("basket")
        if listed:
            lexicon["containers"].append("basket")
        files["lexicon"] = tmp_path / "lexicon.json"
        files["lexicon"].write_text(json.dumps(lexicon))
        plan = tmp_path / "plan.json"
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(files["masks"]),
            "--corpus", str(files["corpus"]),
            "--lexicon", str(files["lexicon"]),
            "--out", str(plan),
        )
        if not listed:
            assert code == 3 and not plan.exists()
            assert capsys.readouterr().err == "demoplan: error: validation: step 4: place target 'basket' is not a container\n"
            return
        assert code == 0 and json.loads(plan.read_text())[4]["target"]["class"] == "basket"
        assert run_cli("run", "--plan", str(plan), "--scenario", str(files["scenario"])) == 0
        assert capsys.readouterr().out.endswith("SUCCESS: 5 steps\n")

    def test_malformed_masks_exit_2(self, capsys, tmp_path):
        masks = tmp_path / "masks.json"
        masks.write_text('{"objects": [{"class": "x"}]}')
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(masks),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"objects": [1]},
            {"objects": 5},
            {"objects": [{"class": "x", "points": [1]}]},
            {"objects": [{"class": "x", "rle_rows": [5]}]},
            {"objects": [{"class": "x", "points": [[1.5, 2]]}]},
            {"objects": [{"class": "x", "points": [[True, 2]]}]},
            {"objects": [{"class": "x", "points": [["1", "2"]]}]},
            {"objects": [{"class": "x", "points": [[1, 2, 3]]}]},
            {"objects": [{"class": "x", "rle_rows": [[1, 2, 3.7]]}]},
            {"objects": [{"class": "x", "points": []}]},
            {"objects": [{"class": 5, "points": [[1, 2]]}]},
            {"image_size": "banana", "objects": [{"class": "banana", "points": [[1, 2]]}]},
            {"image_size": [600], "objects": [{"class": "banana", "points": [[1, 2]]}]},
            {"objects": [{"class": "x", "points": [[10**400, 0], [0, 0]]}]},
            {"objects": [{"class": "x", "points": [[10**400, 0], [-10**400, 0]]}]},
            # coordinates fit a float but their second moments do not
            {"objects": [
                {"class": "banana", "points": [[10**300, 10**300], [0, 1]]},
                {"class": "plastic-box", "points": [[5, 5]]},
            ]},
            # two encodings of one mask
            {"objects": [
                {"class": "banana", "points": [[0, 0]], "rle_rows": [[0, 0, 2]]},
                {"class": "plastic-box", "points": [[5, 5]]},
            ]},
        ],
    )
    def test_mistyped_masks_exit_2(self, capsys, tmp_path, doc):
        masks = tmp_path / "masks.json"
        masks.write_text(json.dumps(doc))
        code = run_cli("plan", "--labels", str(fixtures.labels_path("pick_place")), "--masks", str(masks))
        assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            {"scale": math.nan, "origin": [0.0, 0.0]},
            {"scale": math.inf, "origin": [0.0, 0.0]},
            {"scale": 0.0015, "origin": [math.nan, 0.0]},
            {"scale": 0.0015, "origin": [0.0, -math.inf]},
            {"scale": 0.0015, "origin": []},
            {"scale": 0.0015, "origin": [0, 0, 5]},
            {"scale": True, "origin": [0.0, 0.0]},
            {"scale": "0.0015", "origin": [0.0, 0.0]},
            {"scale": 0.0015, "origin": [0, 0], "image_size": [600]},
            {"scale": 1e307, "origin": [0, 0]},  # finite, but a world coordinate overflows
        ],
    )
    def test_non_finite_calibration_exits_2(self, capsys, tmp_path, doc):
        cal, out = tmp_path / "cal.json", tmp_path / "plan.json"
        cal.write_text(json.dumps(doc))  # NaN and Infinity are JSON extensions Python reads
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(fixtures.masks_path("pick_place")),
            "--calibration", str(cal),
            "--out", str(out),
        )
        assert_parse_error(code, capsys)
        assert not out.exists()

    def test_calibration_without_scale_names_the_field(self, capsys, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({"origin": [0.0, 0.0]}))
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(fixtures.masks_path("pick_place")),
            "--calibration", str(cal),
        )
        assert "calibration is missing field 'scale'" in assert_parse_error(code, capsys)

    def test_a_stray_calibration_field_exits_2_naming_it(self, capsys, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({**json.loads(fixtures.calibration_path().read_text()), "sclae": 0.5}))
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(fixtures.masks_path("pick_place")),
            "--calibration", str(cal),
        )
        assert "calibration takes no sclae" in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "option, text, words",
        [
            ("--calibration", '{"scale": -1, "scale": 0.0015, "origin": [0, 0]}', "calibration repeats key 'scale'"),
            ("--masks", '{"objects": [{"class": "a", "points": [[1, 2]], "class": "b"}]}', "mask file repeats key 'class'"),
        ],
        ids=["calibration", "mask_object"],
    )
    def test_a_repeated_key_exits_2_naming_it(self, capsys, tmp_path, option, text, words):
        path = tmp_path / "doc.json"
        path.write_text(text)
        files = {"--labels": fixtures.labels_path("pick_place"), "--masks": fixtures.masks_path("pick_place"), option: path}
        code = run_cli("plan", *(arg for item in files.items() for arg in map(str, item)))
        assert assert_parse_error(code, capsys) == f"demoplan: error: {words}\n"

    @pytest.mark.parametrize("where", ["top", "object"])
    def test_a_stray_mask_field_exits_2_naming_it(self, capsys, tmp_path, where):
        doc = json.loads(fixtures.masks_path("pick_place").read_text())
        if where == "top":
            doc["extra"], words = 1, "mask file takes no extra"
        else:
            doc["objects"][1]["clas"], words = "apple", "mask object 1 takes no clas"
        masks = tmp_path / "masks.json"
        masks.write_text(json.dumps(doc))
        code = run_cli("plan", "--labels", str(fixtures.labels_path("pick_place")), "--masks", str(masks))
        assert words in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "option, document, text",
        [
            ("--masks", "mask file", '{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}"),
            ("--masks", "mask file", '{"objects": [{"class": "x", "points": [[' + "1" * 5_000 + ", 0]]}]}"),
            ("--masks", "mask file", ""),
            ("--calibration", "calibration", '{"scale": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        ],
        ids=["nested_masks", "long_int_masks", "empty_masks", "nested_calibration"],
    )
    def test_unreadable_json_exits_2_naming_the_document(self, capsys, tmp_path, option, document, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        files = {
            "--labels": fixtures.labels_path("pick_place"),
            "--masks": fixtures.masks_path("pick_place"),
            option: path,
        }
        code = run_cli("plan", *(arg for item in files.items() for arg in map(str, item)))
        assert assert_parse_error(code, capsys).startswith(f"demoplan: error: {document} is ")

    def test_boolean_frame_exits_2(self, capsys, tmp_path):
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({"frame": 0, "label": "idle"}) + "\n" + json.dumps({"frame": True, "label": "idle"}))
        code = run_cli("plan", "--labels", str(labels), "--masks", str(fixtures.masks_path("pick_place")))
        assert "line 2" in assert_parse_error(code, capsys)


class TestRun:
    def test_pick_place_succeeds(self, capsys, pick_place_plan, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = run_cli(
            "run",
            "--plan", str(pick_place_plan),
            "--scenario", str(fixtures.scenario_path("pick_place")),
            "--out", str(trace),
        )
        assert code == 0
        assert "SUCCESS" in capsys.readouterr().out
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 5
        assert all(l["outcome"] == "ok" for l in lines)

    def test_without_out_no_trace_is_encoded(self, capsys, monkeypatch, pick_place_plan):
        monkeypatch.setattr(cli, "trace_to_jsonl", lambda trace: pytest.fail("a trace was encoded"))
        capsys.readouterr()
        code = run_cli("run", "--plan", str(pick_place_plan), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert (code, *capsys.readouterr()) == (0, "SUCCESS: 5 steps\n", "")

    def test_unreached_goal_exits_1(self, capsys, tmp_path):
        plan = tmp_path / "idle.json"
        plan.write_text(json.dumps([{"primitive": "idle"}]))
        code = run_cli("run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert code == 1
        assert capsys.readouterr().out == "FAILURE: task goal not reached\n"

    def test_scenario_class_mismatch_exits_4(self, capsys, pick_place_plan):
        code = run_cli(
            "run",
            "--plan", str(pick_place_plan),
            "--scenario", str(fixtures.scenario_path("push_away")),
        )
        assert code == 4
        assert "absent from scenario" in capsys.readouterr().err

    def test_failing_plan_exits_1_and_echoes_step(self, capsys, tmp_path, pick_place_plan):
        steps = json.loads(pick_place_plan.read_text())
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps([steps[4], steps[2]]))  # place before pick
        code = run_cli("run", "--plan", str(bad), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILURE step 0" in out and "not holding" in out

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            [{"primitive": "pick", "primary": 5}],
            [{"primitive": "pick", "primary": {"x": None}}],
            [{"primitive": "pick", "primary": {"x": True, "y": 0.1, "theta": 0.0, "class": "banana"}}],
            [{"primitive": "pick", "primary": {"x": "0.1", "y": 0.1, "theta": 0.0, "class": "banana"}}],
            [{"primitive": "pick", "primary": {"x": 0.1, "y": 0.1, "theta": 0.0, "class": 5}}],
            [{"primitive": "idle", "confidence": 5}],
            [{"primitive": "idle", "confidence": "banana"}],
            *(
                [{"primitive": "pick", "primary": {"x": 0.1, "y": 0.1, "theta": 0.0, "class": "banana", "degenerate": v}}]
                for v in ("false", [0], 5, None)
            ),
            [{"primitive": 5}],
            [{"primitive": "grab"}],
        ],
    )
    def test_mistyped_plan_exits_2(self, capsys, tmp_path, doc):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        code = run_cli("run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert "plan step 0 " in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "where, edit, words",
        [
            ("plan", lambda steps: steps[2].update(primry=steps[2]["primary"]), "plan step 2 takes no primry"),
            ("plan", lambda steps: steps[2]["primary"].update(clas="banana"), "plan step 2 primary takes no clas"),
            ("scenario", lambda doc: doc.update(notes="tidy up"), "scenario takes no notes"),
            ("scenario", lambda doc: doc.update(gripper_strat=[0.5, 0.5]), "scenario takes no gripper_strat"),
            ("scenario", lambda doc: doc["objects"][0].update(colour="yellow"), "scenario object 0 takes no colour"),
            (
                "scenario",
                lambda doc: doc.update(delivery_zone={"pose": [0.5, 0.5], "radius": 0.1, "radiu": 0.1}),
                "delivery zone takes no radiu",
            ),
        ],
        ids=["step", "pose", "scenario", "gripper_strat", "scenario_object", "delivery_zone"],
    )
    def test_a_stray_plan_key_exits_2_naming_it(self, capsys, tmp_path, pick_place_plan, where, edit, words):
        """run reads a plan and a scenario; a stray key in either exits 2 naming it."""
        paths = {"plan": pick_place_plan, "scenario": fixtures.scenario_path("pick_place")}
        doc = json.loads(paths[where].read_text())
        edit(doc)
        paths[where] = tmp_path / "stray.json"
        paths[where].write_text(json.dumps(doc))
        code = run_cli("run", "--plan", str(paths["plan"]), "--scenario", str(paths["scenario"]))
        assert words in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "task",
        [
            {"kind": "juggle"},
            {"kind": "composite", "parts": [{"kind": "deliver", "object_class": "banana"}, {"kind": "juggle"}]},
        ],
    )
    def test_unknown_task_kind_exits_2(self, capsys, tmp_path, pick_place_plan, task):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**doc, "task": task}))
        code = run_cli("run", "--plan", str(pick_place_plan), "--scenario", str(scenario))
        assert "unknown task kind 'juggle'" in assert_parse_error(code, capsys)

    def test_unknown_part_kind_names_the_field(self, capsys, tmp_path, pick_place_plan):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        task = {"kind": "composite", "parts": [{"kind": "deliver", "object_class": "banana"}, {"kind": "juggle"}]}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**doc, "task": task}))
        code = run_cli("run", "--plan", str(pick_place_plan), "--scenario", str(scenario))
        assert "task part 1 kind" in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "task, field",
        [
            ({"kind": "deliver"}, "task of kind 'deliver' names no object_class"),
            ({"kind": "deliver", "object_class": None}, "task of kind 'deliver' names no object_class"),
            (
                {"kind": "composite", "parts": [{"kind": "pour", "object_class": "banana"}]},
                "task part 0 of kind 'pour' names no target_class",
            ),
        ],
    )
    def test_task_without_the_class_it_reads_exits_2(self, capsys, tmp_path, task, field):
        plan = tmp_path / "plan.json"
        labels, masks = fixtures.labels_path("deliver"), fixtures.masks_path("deliver")
        assert run_cli("plan", "--labels", str(labels), "--masks", str(masks), "--out", str(plan)) == 0
        doc = json.loads(fixtures.scenario_path("deliver").read_text())
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**doc, "task": task}))
        capsys.readouterr()
        code = run_cli("run", "--plan", str(plan), "--scenario", str(scenario))
        assert field in assert_parse_error(code, capsys)


    @pytest.mark.parametrize(
        "edit",
        [
            {"task": 5},
            {"delivery_zone": 5},
            {"task": {"kind": "composite", "parts": [1]}},
            {"task": {"kind": "pick-place", "object_class": 5, "target_class": "plastic-box"}},
            {"objects": [1]},
            {"thresholds": 5},
            [1],
            {"thresholds": {"reach": True}},
            {"objects": [{"id": "a", "class": "banana", "pose": [0.1, 0.1, 0.0], "radius": True}]},
            {"objects": [{"id": "a", "class": "banana", "pose": ["0.1", "0.1", 0.0], "radius": 0.03}]},
            {"objects": [{"id": "a", "class": "banana", "pose": [0.1], "radius": 0.03}]},
            {"delivery_zone": {"pose": [], "radius": 0.1}},
            {"delivery_zone": {"pose": [5, 5], "radius": 0.1}},
            {"task": {"kind": "composite", "parts": []}},
            {"task": {"kind": "composite"}},
            {"task": {"kind": 5}},
            {"objects": [{"id": "a", "class": 5, "pose": [0.1, 0.1, 0.0], "radius": 0.03}]},
            {"objects": [{"id": 5, "class": "banana", "pose": [0.1, 0.1, 0.0], "radius": 0.03}]},
            {"objects": [{"id": "a", "class": "banana", "kind": 5, "pose": [0.1, 0.1, 0.0], "radius": 0.03}]},
        ],
    )
    def test_mistyped_scenario_exits_2(self, capsys, tmp_path, pick_place_plan, edit):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**doc, **edit} if isinstance(edit, dict) else edit))
        code = run_cli("run", "--plan", str(pick_place_plan), "--scenario", str(scenario))
        assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("objects", 0, "radius"), math.nan),
            (("objects", 0, "pose", 2), math.inf),
            (("thresholds", "reach"), math.nan),
            (("delivery_zone",), {"pose": [0.5, math.nan], "radius": 0.1}),
            (("delivery_zone",), {"pose": [0.5, 0.5], "radius": math.inf}),
            (("workspace", 0), math.nan),
            (("task", "containment_radius"), math.nan),
        ],
    )
    def test_non_finite_scenario_exits_2(self, capsys, tmp_path, pick_place_plan, path, value):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code = run_cli("run", "--plan", str(pick_place_plan), "--scenario", str(scenario))
        assert "finite" in assert_parse_error(code, capsys)

    def test_non_finite_plan_pose_exits_2(self, capsys, tmp_path, pick_place_plan):
        steps = json.loads(pick_place_plan.read_text())
        pose = next(s["primary"] for s in steps if s["primary"] is not None)
        pose["x"] = math.nan
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(steps))
        code = run_cli("run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert "not finite" in assert_parse_error(code, capsys)


    def run_edited_scenario(self, tmp_path, plan, edit):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        edit(doc)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        return run_cli("run", "--plan", str(plan), "--scenario", str(scenario))

    def test_an_int_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("[]")
        code = self.run_edited_scenario(tmp_path, plan, lambda doc: doc["objects"][0].update(radius=10**400))
        assert assert_parse_error(code, capsys) == "demoplan: error: object 'banana-0' radius is not finite: inf\n"

    def test_duplicate_object_id_exits_2(self, capsys, tmp_path, pick_place_plan):
        code = self.run_edited_scenario(tmp_path, pick_place_plan, lambda doc: doc["objects"].append(doc["objects"][0]))
        assert "object id 'banana-0' is not unique" in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("thresholds", "reach"), -1),
            (("thresholds", "contact"), 0),
            (("task", "containment_radius"), -1),
            (("delivery_zone",), {"pose": [0.5, 0.5], "radius": -1}),
        ],
    )
    def test_non_positive_length_exits_2(self, capsys, tmp_path, pick_place_plan, path, value):
        def edit(doc):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value

        code = self.run_edited_scenario(tmp_path, pick_place_plan, edit)
        assert "must be positive" in assert_parse_error(code, capsys)

    def test_non_positive_separation_exits_2(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        labels, masks = fixtures.labels_path("push_away"), fixtures.masks_path("push_away")
        assert run_cli("plan", "--labels", str(labels), "--masks", str(masks), "--out", str(plan)) == 0
        doc = json.loads(fixtures.scenario_path("push_away").read_text())
        doc["task"]["separation"] = 0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code = run_cli("run", "--plan", str(plan), "--scenario", str(scenario))
        assert "task separation must be positive" in assert_parse_error(code, capsys)

    def test_unknown_threshold_exits_2(self, capsys, tmp_path, pick_place_plan):
        thresholds = {"rech": 0.5, "contact": 0.04}
        code = self.run_edited_scenario(tmp_path, pick_place_plan, lambda doc: doc.update(thresholds=thresholds))
        assert "thresholds takes no rech" in assert_parse_error(code, capsys)

    def test_gripper_start_outside_workspace_exits_2(self, capsys, tmp_path, pick_place_plan):
        code = self.run_edited_scenario(tmp_path, pick_place_plan, lambda doc: doc.update(gripper_start=[5, 5]))
        assert "gripper start lies outside the workspace" in assert_parse_error(code, capsys)

    def test_scenario_without_workspace_names_the_field(self, capsys, tmp_path, pick_place_plan):
        code = self.run_edited_scenario(tmp_path, pick_place_plan, lambda doc: doc.pop("workspace"))
        assert "scenario is missing field 'workspace'" in assert_parse_error(code, capsys)

    def test_plan_step_without_primitive_names_the_field(self, capsys, tmp_path, pick_place_plan):
        steps = json.loads(pick_place_plan.read_text())
        del steps[2]["primitive"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(steps))
        code = run_cli("run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place")))
        assert "plan is missing field 'primitive'" in assert_parse_error(code, capsys)


# a value of each task field that the pick_place fixture world and plan can score
TASK_FIELD_VALUES = {
    "object_class": "banana",
    "target_class": "plastic-box",
    "containment_radius": 0.05,
    "separation": 0.05,
    "parts": [{"kind": "deliver", "object_class": "banana"}],
}


class TestTaskFields:
    """A task loads exactly the fields of its kind's sim._SUCCESS entry; any other exits 2 naming it."""

    @staticmethod
    def run_task(tmp_path, plan, task):
        doc = json.loads(fixtures.scenario_path("pick_place").read_text())
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**doc, "task": task}))
        return run_cli("run", "--plan", str(plan), "--scenario", str(scenario))

    @pytest.mark.parametrize("null", [False, True], ids=["value", "null"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TaskSpec) if f.name != "kind"])
    @pytest.mark.parametrize("kind", sorted(_SUCCESS))
    def test_a_kind_loads_its_entry_s_fields_and_refuses_any_other(
        self, capsys, tmp_path, pick_place_plan, kind, field, null
    ):
        _, names, bound = _SUCCESS[kind]
        task = {"kind": kind, **{k: TASK_FIELD_VALUES[k] for k in names}}
        task[field] = None if null else TASK_FIELD_VALUES[field]
        code = self.run_task(tmp_path, pick_place_plan, task)
        if field != bound and field not in names:
            assert f"task of kind {kind!r} takes no {field}" in assert_parse_error(code, capsys)
        elif null and field in names:
            assert f"task of kind {kind!r} names no {field}" in assert_parse_error(code, capsys)
        else:  # a null bound is not given
            assert code in (0, 1) and capsys.readouterr().err == ""

    def test_a_pick_place_separation_is_refused_whatever_its_value(self, capsys, tmp_path, pick_place_plan):
        task = json.loads(fixtures.scenario_path("pick_place").read_text())["task"]
        code = self.run_task(tmp_path, pick_place_plan, {**task, "separation": 0})
        assert "task of kind 'pick-place' takes no separation" in assert_parse_error(code, capsys)

    def test_a_stray_part_field_names_the_part(self, capsys, tmp_path, pick_place_plan):
        task = {"kind": "composite", "parts": [{"kind": "deliver", "object_class": "banana", "target_class": "box"}]}
        code = self.run_task(tmp_path, pick_place_plan, task)
        assert "task part 0 of kind 'deliver' takes no target_class" in assert_parse_error(code, capsys)

    @pytest.mark.parametrize("depth", [1, 2, 450])
    def test_a_composite_s_parts_are_plain_tasks(self, capsys, tmp_path, pick_place_plan, depth):
        """One composite scores its parts; a composite among them is refused before its own parts are read."""
        task = json.loads(fixtures.scenario_path("pick_place").read_text())["task"]
        for _ in range(depth):
            task = {"kind": "composite", "parts": [task]}
        code = self.run_task(tmp_path, pick_place_plan, task)
        if depth == 1:
            assert code == 0 and capsys.readouterr().err == ""
        else:
            assert "task part 0 of kind 'composite' is refused" in assert_parse_error(code, capsys)


class TestBench:
    def test_deterministic_outputs(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli(
                "bench", "--trials", "1", "--noise", "0.05", "--seed", "3", "--out", str(out)
            )
            assert code == 0
        assert (out_a / "bench.tsv").read_bytes() == (out_b / "bench.tsv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_outputs_are_byte_identical_to_the_pinned_run(self, capsys, tmp_path):
        """The ROADMAP's byte-identity gate: a speedup must not move a byte of these files."""
        assert run_cli("bench", "--trials", "100", "--noise", "0.10", "--seed", "0", "--out", str(tmp_path)) == 0
        sha = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("summary.json", "bench.tsv")}
        assert sha == {
            "summary.json": "9d372fd65b87d1c65b365e00e82edb90054a367cedb0cf754c5c345913292dd1",
            "bench.tsv": "a61ac72e8bd5a94070c7f28c0977808f9c2174c9897d7683bc6e8d096239a538",
        }

    def test_noisy_run_is_byte_identical_to_its_pin(self, capsys, tmp_path):
        """At 30% noise the trials also end in binding, validation and execution failures, which 10% never reaches."""
        assert run_cli("bench", "--trials", "100", "--noise", "0.30", "--seed", "5", "--out", str(tmp_path)) == 0
        sha = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("summary.json", "bench.tsv")}
        assert sha == {
            "summary.json": "27abaa56cb4522eb3775a56cd135f832ff138fe0b9ff779abee4ad0726fefe1e",
            "bench.tsv": "96d59bc489e07ca28257f76fa3ab251e141f0263519127f0a0cee8891f05505f",
        }

    def test_clean_run_is_perfect(self, capsys, tmp_path):
        out = tmp_path / "clean"
        assert run_cli("bench", "--trials", "10", "--noise", "0.0", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for task, row in summary["tasks"].items():
            assert row["trials"] == 10 and row["successes"] == 10, task

    def test_tsv_shape(self, capsys):
        assert run_cli("bench", "--trials", "1") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t") == ["task", "trials", "successes", "success_rate", "mean_steps", "failures"]
        assert len(lines) == 1 + len(fixtures.TASKS)

    def test_out_of_range_noise_exits_2(self, capsys):
        assert run_cli("bench", "--trials", "1", "--noise", "1.5") == 2
        assert "noise_rate" in capsys.readouterr().err

    def test_zero_trials_exits_2(self, capsys):
        assert run_cli("bench", "--trials", "0") == 2

    @pytest.mark.parametrize("argv", [["--noise", "2"], ["--window-width", "0"]])
    def test_a_stream_setting_a_trial_refuses_exits_2_before_out_is_made(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(bench, "run_trial", lambda *args: pytest.fail("a trial ran"))
        out = tmp_path / "out"
        assert_parse_error(run_cli("bench", "--trials", "1", *argv, "--out", str(out)), capsys, quiet=True)
        assert not out.exists()


class TestCorpusStats:
    def test_tsv_matches_model(self, capsys):
        assert run_cli("corpus", "stats") == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "action\tobject\tcount"
        assert "pick\tapple\t5" in lines
        assert "push\tgrape\t3" in lines

    def test_unreadable_corpus_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        assert run_cli("corpus", "stats", "--corpus", str(missing)) == 2

    def test_invalid_utf8_corpus_exits_2_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"pick the apple\npush the \xff pear\n")
        err = assert_parse_error(run_cli("corpus", "stats", "--corpus", str(corpus)), capsys)
        assert "corpus line 2 " in err

    def test_verbs_differing_only_in_case_exit_2_naming_both(self, tmp_path, capsys):
        corpus, lexicon = tmp_path / "corpus.txt", tmp_path / "lexicon.json"
        corpus.write_text("pick the apple\n")
        lexicon.write_text(json.dumps({"verbs": {"Pick": "pick", "pick": "push"}, "objects": ["apple"]}))
        code = run_cli("corpus", "stats", "--corpus", str(corpus), "--lexicon", str(lexicon))
        err = assert_parse_error(code, capsys)
        assert "'Pick'" in err and "'pick'" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"verbs": 5, "objects": [1]},
            [1],
            {"verbs": {"pick": "pick"}, "objects": 5},
            {"verbs": {"pick": "pick"}, "objects": ["apple", 5]},
            {"verbs": {"pick": [1]}, "objects": ["apple"]},
            {"verbs": {"pick": "pick"}, "objects": ["apple"], "containers": 5},
            {"verbs": {"pick": "pick"}, "objects": ["apple"], "containers": [1]},
            {"verbs": {"pick": "pick"}, "objects": ["apple"], "containers": ["basket"]},
            {"verbs": {"pick": "pick"}, "objects": ["apple"]},
        ],
    )
    def test_mistyped_lexicon_exits_2(self, tmp_path, capsys, doc):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc))
        assert "lexicon" in assert_parse_error(run_cli("corpus", "stats", "--lexicon", str(lexicon)), capsys)

    def test_a_stray_lexicon_field_exits_2_naming_it(self, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({**json.loads(fixtures.lexicon_path().read_text()), "verb": {"grab": "pick"}}))
        code = run_cli("corpus", "stats", "--lexicon", str(lexicon))
        assert "lexicon takes no verb" in assert_parse_error(code, capsys)


@pytest.mark.parametrize(
    "argv, target",
    [
        (["filter", "--labels", str(fixtures.labels_path("pick_place"))], "missing/keys.json"),
        (
            ["plan", "--labels", str(fixtures.labels_path("pick_place")), "--masks", str(fixtures.masks_path("pick_place"))],
            "missing/plan.json",
        ),
        (["bench", "--trials", "1"], "regular-file"),
    ],
)
def test_unwritable_out_exits_2(capsys, tmp_path, monkeypatch, argv, target):
    """Each command writes --out before stdout (bench makes its directory before the first trial), so it fails with nothing printed."""
    monkeypatch.setattr(bench, "run_trial", lambda *args: pytest.fail("a trial ran"))
    (tmp_path / "regular-file").write_text("")
    code = run_cli(*argv, "--out", str(tmp_path / target))
    assert str(tmp_path / target) in assert_parse_error(code, capsys, quiet=True)


FUZZ_VALUES = [[], [1], True, "x", None, math.nan, -1, {}, math.inf]  # a JSON 1e400 reads as inf
DELETE = object()
ADD = object()
WRAP = object()
# the text before and after a value that wraps it once in a list, an object or a composite task
WRAPPERS = [("[", "]"), ('{"extra": ', "}"), ('{"kind": "composite", "parts": [', "]}")]
WRAP_DEPTHS = [2, 450, 1_100]  # the last is past the interpreter's default recursion limit
# names an added field takes: one no reader knows, and every task and threshold field
ADDED_NAMES = ["extra", *(f.name for cls in (TaskSpec, SimConfig) for f in dataclasses.fields(cls))]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The pick_place documents, and per document the argv that reads it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    plan = tmp / "plan.json"
    plan_args = {"--labels": fixtures.labels_path("pick_place"), "--masks": fixtures.masks_path("pick_place")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("plan", *(str(a) for kv in plan_args.items() for a in kv), "--out", str(plan)) == 0
    plan_args.update({"--calibration": fixtures.calibration_path(), "--lexicon": fixtures.lexicon_path()})
    run_args = {"--plan": plan, "--scenario": fixtures.scenario_path("pick_place")}
    readers = {
        "--scenario": ("run", run_args),
        "--plan": ("run", run_args),
        "--calibration": ("plan", plan_args),
        "--masks": ("plan", plan_args),
        "--lexicon": ("plan", plan_args),
    }
    docs = {flag: json.loads(Path(args[flag]).read_text()) for flag, (_, args) in readers.items()}
    return tmp, readers, docs


def field_paths(node, prefix=()):
    """Paths to every object field and to the first five entries of every list."""
    items = node.items() if isinstance(node, dict) else enumerate(node[:5]) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_document_exits_with_a_documented_code(fuzz_inputs, data):
    """Delete, retype, add or deeply wrap one field of one document: the CLI ends in 0..4, and exit 2 prints one line."""
    tmp, readers, docs = fuzz_inputs
    flag = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[flag])
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(st.sampled_from([DELETE, ADD, WRAP, *FUZZ_VALUES]))
    if value is ADD:  # set a named field beside one of some object's fields
        beside = data.draw(st.sampled_from([p for p in field_paths(doc) if isinstance(p[-1], str)]))
        path = (*beside[:-1], data.draw(st.sampled_from(ADDED_NAMES)))
        value = data.draw(st.sampled_from([*FUZZ_VALUES, 0.5, "banana"]))
    node = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DELETE:
        del node[path[-1]]
    elif value is WRAP:  # json.dumps raises past the recursion limit, so the wrapped value is spliced into the text
        (before, after), n = data.draw(st.sampled_from(WRAPPERS)), data.draw(st.sampled_from(WRAP_DEPTHS))
        wrapped = before * n + json.dumps(node[path[-1]]) + after * n
        node[path[-1]] = "@wrapped@"
    else:
        node[path[-1]] = copy.deepcopy(value)
    damaged = tmp / "damaged.json"
    damaged.write_text(json.dumps(doc).replace('"@wrapped@"', wrapped) if value is WRAP else json.dumps(doc))
    command, args = readers[flag]
    argv = [command]
    for f, a in args.items():
        argv += [f, str(damaged if f == flag else a)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code in range(5)
    if code == 2:
        assert err.getvalue().startswith("demoplan: error: ") and err.getvalue().count("\n") == 1, err.getvalue()
