"""Spans around the calls into each layer's public functions, and per-layer metrics.

The tracer replaces each listed function wherever the package binds it (its
own module, ``demoplan/__init__`` and every module that imported it by name),
so calls made inside the program, such as ``run_plan`` calling ``digest``,
are recorded too. A span is (function, start ns, end ns, parent span, op);
op is -1 in set-up. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable

from . import inputs

FUNCTIONS = (
    "actions.synthesize_stream",
    "actions.window_filter",
    "actions.load_label_stream",
    "pose.load_mask_file",
    "pose.load_calibration",
    "pose.sense_scene",
    "knowledge.load_corpus",
    "knowledge.load_lexicon",
    "knowledge.build_model",
    "planner.bind_plan",
    "planner.validate_plan",
    "planner.load_plan",
    "planner.dump_plan",
    "sim.load_scenario",
    "sim.run_plan",
    "sim.apply_primitive",
    "sim.digest",
    "sim.check_success",
    "sim.trace_to_jsonl",
    "cli.main",
)
OP, SETUP = 0, 1
NAMES = ("op", "setup", *FUNCTIONS)
FUNCTION_STATS = (("calls", "count"), ("self_ms", "ms"), ("share", "ratio"), ("setup_ms", "ms"))

# Unit costs take the inclusive time of a function over all its spans.
UNIT_COSTS = (
    ("actions.window_filter.ns_per_frame", "actions.window_filter", "frames", 1e0, "ns/frame"),
    ("actions.synthesize_stream.ns_per_frame", "actions.synthesize_stream", "frames", 1e0, "ns/frame"),
    ("actions.load_label_stream.ns_per_frame", "actions.load_label_stream", "frames", 1e0, "ns/frame"),
    ("pose.load_mask_file.ns_per_px", "pose.load_mask_file", "px", 1e0, "ns/px"),
    ("pose.sense_scene.ns_per_px", "pose.sense_scene", "px", 1e0, "ns/px"),
    ("knowledge.build_model.us_per_sentence", "knowledge.build_model", "sentences", 1e3, "us/sentence"),
    ("planner.bind_plan.us_per_key", "planner.bind_plan", "keys", 1e3, "us/key"),
    ("planner.validate_plan.us_per_step", "planner.validate_plan", "steps", 1e3, "us/step"),
    ("sim.run_plan.us_per_step", "sim.run_plan", "steps", 1e3, "us/step"),
    ("sim.apply_primitive.us_per_call", "sim.apply_primitive", "calls", 1e3, "us/call"),
    ("sim.digest.us_per_call", "sim.digest", "calls", 1e3, "us/call"),
    ("sim.check_success.us_per_call", "sim.check_success", "calls", 1e3, "us/call"),
    ("sim.trace_to_jsonl.us_per_step", "sim.trace_to_jsonl", "steps", 1e3, "us/step"),
)
RATIOS = (
    ("pose.px_per_op", "px"),
    ("planner.bind_ok_ratio", "ratio"),
    ("sim.digest.calls_per_step", "calls/step"),
    ("sim.step_ok_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{fn}.{stat}": unit for fn in FUNCTIONS for stat, unit in FUNCTION_STATS}
    units.update({name: unit for name, _, _, _, unit in UNIT_COSTS})
    units.update(dict(RATIOS))
    return units


class Tracer:
    def __init__(self, mask_files: Iterable[Path] = ()):
        self.spans: list = []
        self.units: dict[tuple[str, str, bool], int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []
        self._scene_px: dict[int, int] = {}
        self._mask_px = {str(p): inputs.mask_pixels(json.loads(Path(p).read_text())) for p in mask_files}
        self._count: dict[str, Callable] = {
            "actions.synthesize_stream": lambda a, r: {"frames": len(r)},
            "actions.window_filter": lambda a, r: {"frames": len(a[0])},
            "actions.load_label_stream": lambda a, r: {"frames": len(r)},
            "pose.load_mask_file": self._count_masks,
            "pose.sense_scene": lambda a, r: {"px": self._scene_px.pop(id(a[0]), 0)},
            "knowledge.build_model": lambda a, r: {"sentences": len(a[0])},
            "planner.bind_plan": lambda a, r: {"keys": len(a[0])},
            "planner.validate_plan": lambda a, r: {"steps": len(a[0]), "invalid": int(bool(r))},
            "sim.run_plan": lambda a, r: {
                "steps": len(r[0].steps),
                "ok_steps": sum(s.outcome == "ok" for s in r[0].steps),
            },
            "sim.trace_to_jsonl": lambda a, r: {"steps": len(a[0].steps)},
        }

    def _count_masks(self, args, scene) -> dict[str, int]:
        px = self._mask_px.get(str(args[0]), 0)
        self._scene_px[id(scene)] = px
        return {"px": px}

    def install(self, program) -> None:
        """Wrap every listed function wherever a demoplan module binds it."""
        modules = [m for name, m in sys.modules.items() if name == "demoplan" or name.startswith("demoplan.")]
        for fid, qualname in enumerate(FUNCTIONS, start=2):
            module, name = qualname.split(".")
            original = getattr(getattr(program, module), name)
            wrapper = self._wrap(fid, qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, fid: int, t0: int, parent: int) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (fid, t0, t1, parent, self.op)

    def _wrap(self, fid: int, qualname: str, fn: Callable) -> Callable:
        count = self._count.get(qualname)
        units = self.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, fid, t0, parent)
                units[(qualname, "raised", self.op >= 0)] += 1
                raise
            self._close(idx, fid, t0, parent)
            units[(qualname, "calls", self.op >= 0)] += 1
            if count is not None:
                for unit, n in count(args, result).items():
                    units[(qualname, unit, self.op >= 0)] += n
            return result

        return wrapper

    @contextmanager
    def root(self, fid: int, op: int):
        """A top-level span: one op (fid OP, op >= 0) or one set-up (fid SETUP, op -1)."""
        self.op = op
        idx, parent = self._open()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, fid, t0, parent)
            self.op = -1

    def write(self, path: Path) -> None:
        """All spans as TSV, times in ns from the first span's start."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (fid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{NAMES[fid]}\t{t0 - base}\t{t1 - base}\t{parent}\t{op}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def span_violations(spans) -> list[str]:
    """Children lie inside their parent and its op; self times are non-negative."""
    out = []
    for i, (fid, t0, t1, parent, op) in enumerate(spans):
        if t1 < t0:
            out.append(f"span {i} ends before it starts")
        if parent >= 0:
            _, p0, p1, _, pop = spans[parent]
            if not (parent < i and p0 <= t0 and t1 <= p1 and pop == op):
                out.append(f"span {i} ({NAMES[fid]}) is not inside its parent {parent}")
        elif fid not in (OP, SETUP):
            out.append(f"span {i} ({NAMES[fid]}) has no op or set-up parent")
    out.extend(f"span {i} has negative self time" for i, s in enumerate(self_times(spans)) if s < 0)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls, self time and share per op, set-up self time, unit costs and ratios.

    A ratio or unit cost with nothing to divide by is reported as 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    n_names = len(NAMES)
    calls, self_op, self_setup, inclusive = [0] * n_names, [0] * n_names, [0] * n_names, [0] * n_names
    for (fid, t0, t1, _, op), own in zip(spans, selfs):
        inclusive[fid] += t1 - t0
        if op >= 0:
            calls[fid] += 1
            self_op[fid] += own
        else:
            self_setup[fid] += own
    n_ops, op_ns = max(calls[OP], 1), inclusive[OP]
    n_setups = max(sum(1 for s in spans if s[0] == SETUP), 1)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def units(qualname: str, unit: str, in_op: bool | None = None) -> int:
        return sum(tracer.units.get((qualname, unit, flag), 0) for flag in (True, False) if in_op in (None, flag))

    out: dict[str, float] = {}
    for fid, qualname in enumerate(FUNCTIONS, start=2):
        out[f"{qualname}.calls"] = calls[fid] / n_ops
        out[f"{qualname}.self_ms"] = self_op[fid] / n_ops / 1e6
        out[f"{qualname}.share"] = ratio(self_op[fid], op_ns)
        out[f"{qualname}.setup_ms"] = self_setup[fid] / n_setups / 1e6
    for name, qualname, unit, scale, _ in UNIT_COSTS:
        out[name] = ratio(inclusive[NAMES.index(qualname)] / scale, units(qualname, unit))
    binds = units("planner.bind_plan", "calls") + units("planner.bind_plan", "raised")
    bound = units("planner.bind_plan", "calls") - units("planner.validate_plan", "invalid")
    out["pose.px_per_op"] = units("pose.sense_scene", "px", in_op=True) / n_ops
    out["planner.bind_ok_ratio"] = ratio(bound, binds)
    out["sim.digest.calls_per_step"] = ratio(units("sim.digest", "calls"), units("sim.run_plan", "steps"))
    out["sim.step_ok_ratio"] = ratio(units("sim.run_plan", "ok_steps"), units("sim.run_plan", "steps"))
    return out
