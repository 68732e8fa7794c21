import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from demoplan import fixtures
from demoplan.knowledge import load_lexicon

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = Path(fixtures.__file__).parent
HAND_CURATED = {"__init__.py", "corpus.txt", "lexicon.json"}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMakeFixtures:
    def test_regenerates_every_shipped_file_byte_for_byte(self, tmp_path, capsys):
        script = load_script("make_fixtures")
        script.FIXTURES = tmp_path
        script.main()
        written = sorted(p.name for p in tmp_path.iterdir())
        shipped = sorted(p.name for p in SHIPPED.iterdir() if p.is_file() and p.name not in HAND_CURATED)
        assert written == shipped
        for name in written:
            assert (tmp_path / name).read_bytes() == (SHIPPED / name).read_bytes(), name

    def test_the_lexicon_and_the_scenes_spell_container_one_way(self):
        containers = load_lexicon(fixtures.lexicon_path()).containers
        kinds = {cls: kind for cls, (kind, _, _) in load_script("make_fixtures").SHAPES.items()}
        assert {cls for cls, kind in kinds.items() if kind == "container"} <= containers
        assert not {cls for cls, kind in kinds.items() if kind != "container"} & containers
        for task in fixtures.TASKS:
            for obj in json.loads(fixtures.scenario_path(task).read_text())["objects"]:
                assert obj["kind"] != "container" or obj["class"] in containers, (task, obj["id"])


class TestNoiseSweep:
    def test_prints_the_task_header_and_one_row_per_level(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), "--seeds", "2", "--levels", "0.1"],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        header, *rows = result.stdout.splitlines()
        assert header.split("\t") == ["noise", *fixtures.TASKS]
        assert len(rows) == 1
        cells = rows[0].split("\t")
        assert cells[0] == "0.10" and len(cells) == 1 + len(fixtures.TASKS)
        assert all(0.0 <= float(c) <= 1.0 for c in cells[1:])

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["--seeds", "0"], "--seeds must be at least 1, not 0"),
            (["--levels", "0.1", "1.5"], "--levels 1.5 does not lie in [0, 1]"),
            (["--window-width", "0"], "--window-width must be at least 1, not 0"),
        ],
    )
    def test_a_bad_argument_exits_2_with_one_usage_error(self, argv, words):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.endswith(f"noise_sweep.py: error: {words}\n") and "Traceback" not in result.stderr


class TestBenchRecord:
    def test_writes_every_section_for_one_workload(self, tmp_path, capsys):
        script = load_script("bench_record")
        script.OUT_DIR = tmp_path
        script.WORKLOADS = ("demo_files",)
        script.FRAMES, script.MASK_SCALE, script.STEPS, script.REPEATS = 300, 1, 40, 1
        out = script.main(["--tag", "tiny", "--seconds", "0.2"])
        assert out == tmp_path / "BENCH_tiny.json"
        record = json.loads(out.read_text())
        assert sorted(record) == ["environment", "scale_points", "settings", "tag", "workloads"]
        assert sorted(record["environment"]) == ["bytecode_cached", "commit", "cpu_count", "python", "source_sha256"]
        assert record["environment"]["source_sha256"] == script.source_sha256()
        runs = record["workloads"]["demo_files"]
        assert sorted(runs) == ["traced", "untraced"]
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0
            assert len(run["output_sha256"]) == 64
            assert run["reference_ms"] > 0
        assert sorted(runs["untraced"]["metrics"]) == sorted(
            ["setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "task_success_rate"]
        )
        assert "pose.load_mask_file.ns_per_px" in runs["traced"]["metrics"]
        scale = record["scale_points"]
        assert sorted(scale) == ["labels", "masks", "plan"]
        assert scale["labels"]["frames"] == 300 and scale["labels"]["filter_ns_per_frame"] > 0
        for encoding in ("points", "rle_rows"):
            assert scale["masks"][encoding]["px"] > 0 and scale["masks"][encoding]["load_ns_per_px"] > 0
        assert scale["plan"]["steps"] == 40 and scale["plan"]["all_ok"] and scale["plan"]["run_us_per_step"] > 0
        assert scale["plan"]["write_us_per_step"] > 0

    def test_the_source_hash_names_the_package_source(self, tmp_path):
        script = load_script("bench_record")
        package = tmp_path / "src" / "demoplan"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("A = 1\n")
        (package / "sub" / "b.py").write_text("B = 2\n")
        (package / "data.json").write_text("{}")
        before = script.source_sha256(tmp_path)
        assert len(before) == 64 and script.source_sha256(tmp_path) == before
        (package / "data.json").write_text("[]")  # not source: the hash stays
        assert script.source_sha256(tmp_path) == before
        (package / "sub" / "b.py").write_text("B = 3\n")  # one byte changed
        assert script.source_sha256(tmp_path) != before
        (package / "sub" / "b.py").write_text("B = 2\n")
        assert script.source_sha256(tmp_path) == before
        (package / "sub" / "b.py").rename(package / "b.py")  # the same bytes under another path
        assert script.source_sha256(tmp_path) != before
