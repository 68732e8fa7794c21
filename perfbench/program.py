"""Import the demoplan package from the checkout's ``src/`` directory.

Each load first drops the package from ``sys.modules``, so timing a load
includes the package's import-time work. Objects made by one load must not be
mixed with functions from another, so callers build program objects only
from the last load.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

PACKAGE = "demoplan"
MODULES = ("actions", "pose", "knowledge", "planner", "sim", "cli", "bench", "fixtures")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable demoplan package under src/."""


def package_modules() -> list[str]:
    return [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]


def load(root: Path) -> SimpleNamespace:
    """Fresh import of demoplan from ``root/src``; one attribute per module."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in package_modules():
        del sys.modules[name]
    try:
        pkg = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import {PACKAGE} from {src}: {exc}") from None
    origin = Path(pkg.__file__ or "").resolve()
    if not origin.is_relative_to(src):
        raise ProgramMissing(f"{PACKAGE} was imported from {origin}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
