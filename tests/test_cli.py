import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoplan import fixtures
from demoplan.cli import main


def run_cli(*argv):
    return main(list(argv))


def assert_parse_error(code, capsys):
    """Exit 2 with exactly one error line on stderr; returns that line."""
    err = capsys.readouterr().err
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
        ],
        ids=["nested", "long_int", "invalid_utf8"],
    )
    def test_unreadable_line_exits_2_citing_line(self, capsys, tmp_path, line):
        # raw text: json.dumps cannot write any of these lines
        labels = tmp_path / "bad.jsonl"
        text = json.dumps({"frame": 0, "label": "idle"}) + "\n" + line + "\n"
        labels.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert "line 2: " in assert_parse_error(run_cli("filter", "--labels", str(labels)), capsys)

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
        ],
    )
    def test_non_finite_calibration_exits_2(self, capsys, tmp_path, doc):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))  # NaN and Infinity are JSON extensions Python reads
        code = run_cli(
            "plan",
            "--labels", str(fixtures.labels_path("pick_place")),
            "--masks", str(fixtures.masks_path("pick_place")),
            "--calibration", str(cal),
        )
        assert_parse_error(code, capsys)

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

    def test_duplicate_object_id_exits_2(self, capsys, tmp_path, pick_place_plan):
        code = self.run_edited_scenario(tmp_path, pick_place_plan, lambda doc: doc["objects"].append(doc["objects"][0]))
        assert "object id 'banana-0' is not unique" in assert_parse_error(code, capsys)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("thresholds", "reach"), -1),
            (("thresholds", "contact"), 0),
            (("task", "containment_radius"), -1),
            (("task", "separation"), 0),
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

    @pytest.mark.parametrize(
        "doc",
        [
            {"verbs": 5, "objects": [1]},
            [1],
            {"verbs": {"pick": "pick"}, "objects": 5},
            {"verbs": {"pick": "pick"}, "objects": ["apple", 5]},
            {"verbs": {"pick": [1]}, "objects": ["apple"]},
        ],
    )
    def test_mistyped_lexicon_exits_2(self, tmp_path, capsys, doc):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc))
        assert "lexicon" in assert_parse_error(run_cli("corpus", "stats", "--lexicon", str(lexicon)), capsys)


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
def test_unwritable_out_exits_2(capsys, tmp_path, argv, target):
    (tmp_path / "regular-file").write_text("")
    code = run_cli(*argv, "--out", str(tmp_path / target))
    assert str(tmp_path / target) in assert_parse_error(code, capsys)


FUZZ_VALUES = [[], [1], True, "x", None, math.nan, -1, {}, math.inf]  # a JSON 1e400 reads as inf
DELETE = object()


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
    """Delete or retype one field of one document: the CLI ends in 0..4, and exit 2 prints one line."""
    tmp, readers, docs = fuzz_inputs
    flag = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[flag])
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(st.sampled_from([DELETE, *FUZZ_VALUES]))
    node = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    damaged = tmp / "damaged.json"
    damaged.write_text(json.dumps(doc))
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
