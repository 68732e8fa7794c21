"""Metamorphic relations of the whole pipeline, through cli.main and bench.run_benchmark.

The paper's claim is that knowledge from text, not names written in the
code, carries a skill across objects. So the seven fixture tasks must plan
and run the same way when

  (a) every class is renamed consistently, in an order-keeping way, across
      the corpus, the lexicon, the masks and the scenarios;
  (b) every corpus sentence is repeated k times;
  (c) each mask object swaps its encoding between points and RLE rows;
  (d) the objects of each mask file and scenario are listed in another order.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest

from demoplan import bench, fixtures
from demoplan.cli import main

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
    """(a) Every class renamed, containers included: the same plans, runs and bench table once mapped back."""

    TOKENS = frozenset(t for o in json.loads((SHIPPED / "lexicon.json").read_text())["objects"] for t in o.split())

    @staticmethod
    def rename(name: str) -> str:
        return " ".join(PREFIX + t for t in name.split())

    @staticmethod
    def back(text: str) -> str:
        return re.sub(rf"(?<![a-z0-9-]){PREFIX}(?=[a-z0-9])", "", text)

    def rename_file(self, name: str, text: str) -> str:
        def names(node):
            if isinstance(node, list):
                for item in node:
                    names(item)
            elif isinstance(node, dict):
                for key, value in node.items():
                    if key in NAMED:
                        node[key] = self.rename(value)
                    else:
                        names(value)

        if name == "corpus.txt":
            return TOKEN.sub(lambda m: PREFIX + m[0] if m[0] in self.TOKENS else m[0], text.lower())
        if name != "lexicon.json" and not name.startswith(("masks_", "scenario_")):
            return text
        doc = json.loads(text)
        if name == "lexicon.json":
            doc.update({key: [self.rename(n) for n in doc[key]] for key in ("objects", "containers")})
        names(doc)
        return json.dumps(doc, indent=2)

    @pytest.fixture(scope="class")
    def renamed(self, tmp_path_factory):
        return copy_pack(tmp_path_factory.mktemp("renamed") / "pack", self.rename_file)

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
