"""Metamorphic relations of the whole pipeline, through cli.main and bench.run_benchmark.

The paper's claim is that knowledge from text, not names written in the
code, carries a skill across objects. So the seven fixture tasks must plan
and run the same way when

  (a) every class is renamed consistently, in an order-keeping way, across
      the corpus, the lexicon, the masks and the scenarios;
  (b) every corpus sentence is repeated k times;
  (c) each mask object swaps its encoding between points and RLE rows;
  (d) the objects of each mask file and scenario are listed in another order;
  (e) every class and id is renamed in an order-reversing way, except at the
      steps a name tie decides;

and (f), the control, a model with no counts under the rename of (e) fails
the tasks whose binding the counts decide.
"""

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

import pytest

from demoplan import bench, fixtures, sim
from demoplan.actions import keys_from_names
from demoplan.cli import main
from demoplan.knowledge import CooccurrenceModel, build_model, load_corpus, load_lexicon
from demoplan.pose import load_calibration, load_mask_file, sense_scene

SHIPPED = fixtures.corpus_path().parent
TOKEN = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")  # a corpus token, as knowledge reads it
PREFIX = "zq"  # put before every token of a class name and every object id; no output word starts with it
NAMED = ("class", "id", "object_class", "target_class")  # the mask and scenario fields that hold a name
DIGEST = re.compile(r'"(pre|post)": "[0-9a-f]{64}"')


def cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def copy_pack(dest: Path, edit) -> Path:
    """A copy of the fixture pack in dest, each file's text passed through edit(name, text)."""
    dest.mkdir()
    for src in SHIPPED.iterdir():
        if src.is_file() and src.suffix in (".json", ".jsonl", ".txt"):
            (dest / src.name).write_text(edit(src.name, src.read_text()))
    return dest


def pipeline(pack: Path, task: str, tmp: Path) -> dict:
    """plan then run one task from a pack: each command's (exit code, stdout, stderr) and the file it wrote."""
    plan, trace = tmp / f"plan_{task}.json", tmp / f"trace_{task}.jsonl"
    inputs = ["--labels", pack / f"labels_{task}.jsonl", "--masks", pack / f"masks_{task}.json"]
    inputs += ["--corpus", pack / "corpus.txt", "--lexicon", pack / "lexicon.json", "--calibration", pack / "calibration.json"]
    result = {"plan": cli("plan", *inputs, "--out", plan)}
    if result["plan"][0] == 0:
        result["plan_text"] = plan.read_text()
        result["run"] = cli("run", "--plan", plan, "--scenario", pack / f"scenario_{task}.json", "--out", trace)
        result["trace"] = trace.read_text()
    return result


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("shipped")
    runs = {task: pipeline(SHIPPED, task, tmp) for task in fixtures.TASKS}
    assert all(r["plan"][0] == 0 and r["run"][0] == 0 for r in runs.values())
    return runs


class TestRename:
    """(a) and (e): every class renamed, containers included, and every id with (e); mapped back, the same outputs."""

    TOKENS = frozenset(t for o in json.loads((SHIPPED / "lexicon.json").read_text())["objects"] for t in o.split())
    IDS = frozenset(o["id"] for task in fixtures.TASKS for o in json.loads(fixtures.scenario_path(task).read_text())["objects"])
    # (e) each class token and object id named by its rank from the end of their sorted list, all of one width
    REVERSED = {n: f"{PREFIX}{i:03d}" for i, n in enumerate(sorted(TOKENS | IDS, reverse=True))}
    UNREVERSED = {code: n for n, code in REVERSED.items()}
    # the composite_1 steps a name tie decides: corn and toy-train are both counted 3 times for their action
    TIED = {"composite_1": {5, 6, 9, 10}}

    @staticmethod
    def rename(name: str, token=lambda t: PREFIX + t) -> str:
        return " ".join(map(token, name.split()))

    @staticmethod
    def back(text: str) -> str:
        return re.sub(rf"(?<![a-z0-9-]){PREFIX}(?=[a-z0-9])", "", text)

    def reverse(self, name: str) -> str:
        return self.rename(name, self.REVERSED.__getitem__)

    def unreverse(self, text: str) -> str:
        return re.sub(rf"{PREFIX}[0-9]{{3}}", lambda m: self.UNREVERSED[m[0]], text)

    def rename_file(self, name: str, text: str, token=lambda t: PREFIX + t) -> str:
        def names(node):
            if isinstance(node, list):
                for item in node:
                    names(item)
            elif isinstance(node, dict):
                for key, value in node.items():
                    if key in NAMED:
                        node[key] = self.rename(value, token)
                    else:
                        names(value)

        if name == "corpus.txt":
            return TOKEN.sub(lambda m: token(m[0]) if m[0] in self.TOKENS else m[0], text.lower())
        if name != "lexicon.json" and not name.startswith(("masks_", "scenario_")):
            return text
        doc = json.loads(text)
        if name == "lexicon.json":
            doc.update({key: [self.rename(n, token) for n in doc[key]] for key in ("objects", "containers")})
        names(doc)
        return json.dumps(doc, indent=2)

    @pytest.fixture(scope="class")
    def renamed(self, tmp_path_factory):
        return copy_pack(tmp_path_factory.mktemp("renamed") / "pack", self.rename_file)

    @pytest.fixture(scope="class")
    def reversed_pack(self, tmp_path_factory):
        edit = functools.partial(self.rename_file, token=self.REVERSED.__getitem__)
        return copy_pack(tmp_path_factory.mktemp("reversed") / "pack", edit)

    def test_the_map_keeps_the_order_of_every_class_and_id(self, renamed):
        lexicon = json.loads((SHIPPED / "lexicon.json").read_text())
        scenarios = [json.loads(fixtures.scenario_path(task).read_text()) for task in fixtures.TASKS]
        ids = [o["id"] for scenario in scenarios for o in scenario["objects"]]
        for names in (lexicon["objects"], lexicon["containers"], ids):
            assert [self.rename(n) for n in sorted(names)] == sorted(self.rename(n) for n in names)
            assert [self.back(self.rename(n)) for n in names] == names
        renamed_containers = json.loads((renamed / "lexicon.json").read_text())["containers"]
        assert renamed_containers == [self.rename(c) for c in lexicon["containers"]]

    @pytest.mark.parametrize("task", fixtures.TASKS)
    def test_plan_and_run_match_once_names_are_mapped_back(self, shipped_runs, renamed, tmp_path, task):
        got, want = pipeline(renamed, task, tmp_path), shipped_runs[task]
        code, out, err = got["plan"]
        assert (code, self.back(out), self.back(err)) == want["plan"]
        assert self.back(got["plan_text"]) == want["plan_text"]
        assert PREFIX in got["plan_text"] and PREFIX in got["trace"]
        code, out, err = got["run"]
        assert (code, self.back(out), self.back(err)) == want["run"]
        assert DIGEST.sub("", self.back(got["trace"])) == DIGEST.sub("", want["trace"])

    def test_the_noisy_bench_table_matches_once_names_are_mapped_back(self, renamed, monkeypatch):
        cfg = dict(trials=100, noise_rate=0.30, seed=5)
        want = bench.results_tsv(bench.run_benchmark(bench.BenchConfig(**cfg)))
        monkeypatch.setattr(fixtures, "fixture_path", lambda name: renamed / name)
        got = bench.results_tsv(bench.run_benchmark(bench.BenchConfig(**cfg)))
        assert f"tilt target '{PREFIX}corn' is not a container" in got
        assert self.back(got) == want

    def test_the_reversing_map_reverses_the_order_of_every_class_and_id(self, reversed_pack):
        lexicon = json.loads((SHIPPED / "lexicon.json").read_text())
        for names in (lexicon["objects"], lexicon["containers"], sorted(self.IDS)):
            renamed = [self.reverse(n) for n in names]
            assert sorted(renamed) == [self.reverse(n) for n in sorted(names, reverse=True)]
            assert [self.unreverse(n) for n in renamed] == names
        renamed_containers = json.loads((reversed_pack / "lexicon.json").read_text())["containers"]
        assert renamed_containers == [self.reverse(c) for c in lexicon["containers"]]

    @pytest.mark.parametrize("task", fixtures.TASKS)
    def test_a_reversing_rename_changes_only_the_steps_a_name_tie_decides(
        self, shipped_runs, reversed_pack, tmp_path, monkeypatch, task
    ):
        """(e) Mapped back, only composite_1's tied steps differ, and no step meets a tie of sim._find's distances."""
        nearest, find = [], sim._find

        def untied_find(world, pose):
            near = sorted(sim._dist(o.x, o.y, pose.x, pose.y) for o in world.objects.values() if o.class_name == pose.class_name)
            nearest.append(near[:2])
            return find(world, pose)

        monkeypatch.setattr(sim, "_find", untied_find)
        got, want = pipeline(reversed_pack, task, tmp_path), shipped_runs[task]
        assert nearest and all(len(near) < 2 or near[0] < near[1] for near in nearest)
        code, out, err = got["plan"]
        assert (code, out, self.unreverse(err)) == (want["plan"][0], got["plan_text"], want["plan"][2])
        assert PREFIX in got["plan_text"] and PREFIX in got["trace"]
        code, out, err = got["run"]
        assert (code, self.unreverse(out), self.unreverse(err)) == want["run"]

        def differing(got_lines, want_lines):
            assert len(got_lines) == len(want_lines)
            return {i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b}

        plan = json.loads(self.unreverse(got["plan_text"]))
        assert differing(plan, json.loads(want["plan_text"])) == self.TIED.get(task, set())
        trace = DIGEST.sub("", self.unreverse(got["trace"])).splitlines()
        assert differing(trace, DIGEST.sub("", want["trace"]).splitlines()) == self.TIED.get(task, set())

    def test_a_model_with_no_counts_fails_five_tasks_under_the_reversing_rename(self, reversed_pack):
        """(f) The control: the corpus decides pick_place, pour, open_bottle and the composites, not the names.

        build_model refuses a corpus that yields no pair, so the countless model is built directly.
        Each trial runs the golden keys at zero noise, which the filter returns unchanged.
        """
        lexicon = load_lexicon(reversed_pack / "lexicon.json")
        cal = load_calibration(reversed_pack / "calibration.json")
        models = build_model(load_corpus(reversed_pack / "corpus.txt"), lexicon), CooccurrenceModel(containers=lexicon.containers)
        stages = {}
        for task in fixtures.TASKS:
            golden = keys_from_names(json.loads((reversed_pack / f"keys_{task}.json").read_text()))
            poses = sense_scene(load_mask_file(reversed_pack / f"masks_{task}.json"), cal)
            inputs = golden, poses, sim.load_scenario(reversed_pack / f"scenario_{task}.json")
            reasons = [bench.run_trial(inputs, model, 0, bench.BenchConfig())[0] for model in models]
            stages[task] = [reason and reason.split(":")[0] for reason in reasons]
        assert stages == {
            "pick_place": [None, "validation"],
            "push_away": [None, None],
            "open_bottle": [None, "predicate"],
            "pour": [None, "validation"],
            "deliver": [None, None],
            "composite_1": [None, "validation"],
            "composite_2": [None, "validation"],
        }


@pytest.mark.parametrize("k", [2, 5])
def test_repeating_every_corpus_sentence_binds_the_same_classes(shipped_runs, tmp_path, k):
    """(b) Counts scale by k, which changes no rank and no zero count, so no plan changes."""

    def repeat(name, text):
        return "".join(line * k for line in text.splitlines(True)) if name == "corpus.txt" else text

    pack = copy_pack(tmp_path / "pack", repeat)
    for task in fixtures.TASKS:
        got = pipeline(pack, task, tmp_path)
        assert got["plan"] == shipped_runs[task]["plan"], task


def swap_encoding(obj: dict) -> dict:
    """The mask object with its pixels written in the other encoding: points as RLE rows, RLE rows as points."""
    if "points" in obj:
        rows = []
        for x, y in sorted(obj["points"], key=lambda p: (p[1], p[0])):
            if rows and rows[-1][0] == y and rows[-1][1] + rows[-1][2] == x:
                rows[-1][2] += 1
            else:
                rows.append([y, x, 1])
        return {"class": obj["class"], "rle_rows": rows}
    return {"class": obj["class"], "points": [[x, y] for y, x0, n in obj["rle_rows"] for x in range(x0, x0 + n)]}


def test_swapping_each_mask_s_encoding_keeps_every_plan_byte_identical(shipped_runs, tmp_path):
    """(c) Both encodings reduce to the same moments, so the plans are the same bytes."""

    def swap(name, text):
        if not name.startswith("masks_"):
            return text
        doc = json.loads(text)
        doc["objects"] = [swap_encoding(o) for o in doc["objects"]]
        return json.dumps(doc)

    pack = copy_pack(tmp_path / "pack", swap)
    for task in fixtures.TASKS:
        masks = json.loads((pack / f"masks_{task}.json").read_text())["objects"]
        shipped = json.loads(fixtures.masks_path(task).read_text())["objects"]
        assert [sorted(o) for o in masks] != [sorted(o) for o in shipped]
        assert [swap_encoding(o) for o in masks] == shipped
        assert pipeline(pack, task, tmp_path)["plan"] == shipped_runs[task]["plan"], task


@pytest.mark.parametrize("seed", range(3))
def test_listing_the_objects_in_another_order_changes_no_plan_or_digest(shipped_runs, tmp_path, seed):
    """(d) A mask file's classes are distinct and the scenario is keyed by id, so order carries nothing."""
    rng = random.Random(seed)

    def shuffle(name, text):
        if not name.startswith(("masks_", "scenario_")):
            return text
        doc = json.loads(text)
        rng.shuffle(doc["objects"])
        return json.dumps(doc)

    pack = copy_pack(tmp_path / "pack", shuffle)
    for task in fixtures.TASKS:
        masks = [o["class"] for o in json.loads((pack / f"masks_{task}.json").read_text())["objects"]]
        assert len(set(masks)) == len(masks)
        got = pipeline(pack, task, tmp_path)
        assert got == shipped_runs[task], task
