import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "module, closure",
    [
        ("demoplan.fixtures", ["demoplan", "demoplan.fixtures"]),
        ("demoplan.jsondoc", ["demoplan", "demoplan.jsondoc"]),
        ("demoplan.pose", ["demoplan", "demoplan.jsondoc", "demoplan.pose"]),
    ],
)
def test_importing_a_module_loads_only_what_it_imports(module, closure):
    """The package binds no names and jsondoc imports no package module, so an import loads only its own closure."""
    code = (
        "import sys\n"
        f"import {module}\n"
        "print(sorted(m for m in sys.modules if m == 'demoplan' or m.startswith('demoplan.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(closure)
