import importlib.util
import subprocess
import sys
from pathlib import Path

from demoplan import fixtures

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
