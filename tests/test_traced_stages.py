"""Every function the perfbench tracer lists is reached by the CLI commands.

The tracer (perfbench/spans.py) wraps each name in its FUNCTIONS wherever a
demoplan module binds it. A stage that the commands stop calling through such
a binding shows up only as a zero in a traced record, so this test counts the
calls itself.
"""

import importlib.util
import sys
from pathlib import Path

from demoplan import fixtures

ROOT = Path(__file__).resolve().parents[1]


def traced_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # spans.py imports its sibling perfbench.inputs
    spec = importlib.util.spec_from_file_location("perfbench.spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


def count_calls(monkeypatch, qualnames):
    """Wrap each function wherever a demoplan module binds it by name; returns the call counters."""
    calls = dict.fromkeys(qualnames, 0)
    originals = {}
    for qualname in qualnames:
        module, name = qualname.split(".")
        originals[qualname] = getattr(importlib.import_module(f"demoplan.{module}"), name)
    modules = [m for name, m in sys.modules.items() if name == "demoplan" or name.startswith("demoplan.")]
    for qualname, original in originals.items():

        def counted(*args, _qualname=qualname, _original=original, **kwargs):
            calls[_qualname] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_the_commands_call_every_traced_function(monkeypatch, tmp_path, capsys):
    calls = count_calls(monkeypatch, traced_functions(monkeypatch))
    cli = importlib.import_module("demoplan.cli")
    labels = str(fixtures.labels_path("pick_place"))
    plan, trace = tmp_path / "plan.json", tmp_path / "trace.jsonl"
    assert cli.main(["filter", "--labels", labels]) == 0
    assert cli.main(["plan", "--labels", labels, "--masks", str(fixtures.masks_path("pick_place")), "--out", str(plan)]) == 0
    assert cli.main(["run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place")), "--out", str(trace)]) == 0
    assert cli.main(["corpus", "stats"]) == 0
    assert cli.main(["bench", "--trials", "1"]) == 0
    assert {name: n for name, n in calls.items() if n < 1} == {}
