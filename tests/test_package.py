import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_importing_fixtures_loads_no_other_module():
    """The package binds no names, so `import demoplan.fixtures` loads only the package and that module."""
    code = (
        "import sys\n"
        "import demoplan.fixtures\n"
        "print(sorted(m for m in sys.modules if m == 'demoplan' or m.startswith('demoplan.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['demoplan', 'demoplan.fixtures']"
