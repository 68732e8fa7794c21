"""Seeded input generators.

Everything here is the benchmark's own code and writes only the documented
file formats (label JSONL, mask JSON, calibration JSON, scenario JSON, plan
JSON), so the inputs do not change when the program's internals do.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Sequence

LABELS = ("idle", "move", "pick", "place", "push", "tilt", "rotate")


def noisy_frames(keys: Sequence[str], frames_per_key: int, noise: float, rng: random.Random) -> list[str]:
    """Repeat each key, then replace each frame by another label with probability ``noise``."""
    frames: list[str] = []
    for key in keys:
        for _ in range(frames_per_key):
            if rng.random() < noise:
                frames.append(rng.choice([label for label in LABELS if label != key]))
            else:
                frames.append(key)
    return frames


def random_keys(count: int, rng: random.Random) -> list[str]:
    """A key sequence with no two equal neighbours."""
    keys = [rng.choice(LABELS)]
    while len(keys) < count:
        keys.append(rng.choice([label for label in LABELS if label != keys[-1]]))
    return keys


def write_labels(path: Path, frames: Sequence[str]) -> None:
    path.write_text("".join(json.dumps({"frame": i, "label": f}) + "\n" for i, f in enumerate(frames)))


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def mask_pixels(doc: dict) -> int:
    """Pixel count of a mask document, over both encodings."""
    return sum(
        len(obj["points"]) if "points" in obj else sum(run[2] for run in obj["rle_rows"]) for obj in doc["objects"]
    )


def upscale_masks(doc: dict, k: int) -> dict:
    """Each pixel becomes a k x k block; every object keeps its encoding."""
    objects = []
    for obj in doc["objects"]:
        if "points" in obj:
            points = [[x * k + dx, y * k + dy] for x, y in obj["points"] for dy in range(k) for dx in range(k)]
            objects.append({"class": obj["class"], "points": points})
        else:
            rows = [[y * k + dy, x * k, n * k] for y, x, n in obj["rle_rows"] for dy in range(k)]
            objects.append({"class": obj["class"], "rle_rows": rows})
    width, height = doc.get("image_size", (600, 600))
    return {"image_size": [width * k, height * k], "objects": objects}


def upscale_calibration(doc: dict, k: int) -> dict:
    """Calibration under which upscaled masks give the original world poses.

    A block's centroid sits at k*x + (k-1)/2, so the scale shrinks by k and
    the origin moves back by scale*(k-1)/(2k).
    """
    scale = float(doc["scale"])
    shift = scale * (k - 1) / (2 * k)
    width, height = doc.get("image_size", (600, 600))
    return {
        "scale": scale / k,
        "origin": [float(doc["origin"][0]) - shift, float(doc["origin"][1]) - shift],
        "image_size": [width * k, height * k],
    }


# Long plans -----------------------------------------------------------------

REACH = 0.05
CONTACT = 0.04
ZONE_RADIUS = 0.08
SIZE = 2.0
MARGIN = 0.15  # objects start this far inside the workspace and out of the zone
ITEM, CONTAINER, BOTTLE = "item", "container", "bottle"


def _pose(name: str, at: Sequence[float]) -> dict:
    return {"x": at[0], "y": at[1], "theta": 0.0, "class": name, "degenerate": False}


def _step(primitive: str, primary: dict | None = None, target: dict | None = None) -> dict:
    return {"primitive": primitive, "primary": primary, "target": target, "confidence": "normal"}


class LongWorld:
    """The benchmark's own model of the tabletop, used to emit executable steps.

    Every object has its own class, so the simulator resolves each bound pose
    to exactly one object. Steps stay clear of the edge cases of the
    simulator: reach-limited steps are preceded by a move onto the object,
    placing never creates a containment cycle, and pushes that would end near
    the workspace edge are not emitted.
    """

    def __init__(self, n_objects: int, rng: random.Random):
        self.rng = rng
        kinds = [CONTAINER] * (n_objects // 3) + [BOTTLE] * (n_objects // 6)
        kinds += [ITEM] * (n_objects - len(kinds))
        self.zone = [rng.uniform(MARGIN, SIZE - MARGIN), rng.uniform(MARGIN, SIZE - MARGIN)]
        self.kind: dict[str, str] = {}
        self.pos: dict[str, list[float]] = {}
        for i, kind in enumerate(kinds):
            name = f"{kind}-{i:02d}"
            self.kind[name] = kind
            while True:
                at = [rng.uniform(MARGIN, SIZE - MARGIN), rng.uniform(MARGIN, SIZE - MARGIN)]
                if math.dist(at, self.zone) > ZONE_RADIUS + MARGIN:
                    break
            self.pos[name] = at
        self.gripper = [rng.uniform(MARGIN, SIZE - MARGIN), rng.uniform(MARGIN, SIZE - MARGIN)]
        self.held: str | None = None
        self.inside: dict[str, str] = {}
        self.steps: list[dict] = []

    def scenario(self) -> dict:
        radius = {ITEM: 0.03, BOTTLE: 0.03, CONTAINER: 0.06}
        return {
            "workspace": [SIZE, SIZE],
            "objects": [
                {"id": name, "class": name, "kind": kind, "pose": [*self.pos[name], 0.0], "radius": radius[kind]}
                for name, kind in self.kind.items()
            ],
            "delivery_zone": {"pose": list(self.zone), "radius": ZONE_RADIUS},
            "gripper_start": list(self.gripper),
            "thresholds": {"reach": REACH, "contact": CONTACT},
        }

    def contents(self, name: str) -> set[str]:
        out: set[str] = set()
        frontier = [name]
        while frontier:
            parent = frontier.pop()
            for child, container in self.inside.items():
                if container == parent and child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def _shift(self, names, dx: float, dy: float) -> None:
        for name in names:
            self.pos[name][0] += dx
            self.pos[name][1] += dy

    def _in_zone(self, at: Sequence[float], slack: float = 0.0) -> bool:
        return math.dist(at, self.zone) <= ZONE_RADIUS + slack

    # Each emitter appends its steps and updates the model exactly as the
    # simulator would update the world.

    def move(self, name: str | None) -> None:
        dest = list(self.zone) if name is None else list(self.pos[name])
        self.steps.append(_step("move", target=None if name is None else _pose(name, dest)))
        if self.held is not None:
            held = self.held
            self._shift(self.contents(held), dest[0] - self.pos[held][0], dest[1] - self.pos[held][1])
            self.pos[held] = list(dest)
            if self._in_zone(dest):
                self.held = None
        self.gripper = dest

    def pick(self, name: str) -> None:
        self.move(name)
        self.steps.append(_step("pick", primary=_pose(name, self.pos[name])))
        self.held = name
        self.inside.pop(name, None)
        self.gripper = list(self.pos[name])

    def place(self, container: str) -> None:
        self.move(container)
        self.steps.append(_step("place", target=_pose(container, self.pos[container])))
        self.inside[self.held] = container
        self.held = None

    def tilt(self, container: str) -> None:
        self.move(container)
        self.steps.append(_step("tilt", target=_pose(container, self.pos[container])))
        self.held = None

    def rotate(self, name: str) -> None:
        if self.held != name:
            self.move(name)
        self.steps.append(_step("rotate", primary=_pose(name, self.pos[name])))

    def push_end(self, name: str, target: str) -> list[float] | None:
        """Where ``name`` ends when pushed toward ``target``; None if too near the edge."""
        (px, py), (tx, ty) = self.pos[name], self.pos[target]
        d = math.hypot(px - tx, py - ty)
        if d <= CONTACT:
            return [px, py]
        end = [tx - CONTACT * (tx - px) / d, ty - CONTACT * (ty - py) / d]
        return end if all(0.05 <= v <= SIZE - 0.05 for v in end) else None

    def push(self, name: str, target: str, end: Sequence[float]) -> None:
        self.steps.append(_step("push", primary=_pose(name, self.pos[name]), target=_pose(target, self.pos[target])))
        group = {name} | (self.contents(name) if self.kind[name] == CONTAINER else set())
        self._shift(group, end[0] - self.pos[name][0], end[1] - self.pos[name][1])
        self.gripper = list(end)

    def targets(self, exclude: set[str]) -> list[str]:
        """Containers that the held object may go into without a cycle or a handover."""
        return [
            name
            for name, kind in self.kind.items()
            if kind == CONTAINER and name not in exclude and not self._in_zone(self.pos[name], slack=0.01)
        ]

    def random_action(self) -> None:
        rng = self.rng
        names = sorted(self.kind)
        roll = rng.random()
        if self.held is not None:
            held = self.held
            targets = self.targets({held} | self.contents(held))
            # Two containers stay outside every other one, so a held container always has a target.
            free = sum(1 for n, k in self.kind.items() if k == CONTAINER and n not in self.inside)
            if roll < 0.4 and targets and (self.kind[held] != CONTAINER or free > 2):
                self.place(rng.choice(targets))
            elif roll < 0.6 and targets:
                self.tilt(rng.choice(targets))
            elif roll < 0.7:
                self.rotate(held)
            elif self.kind[held] != CONTAINER:
                self.move(rng.choice([n for n in names if n != held]) if roll < 0.9 else None)
            else:  # containers never enter the zone, so finish() always finds targets
                self.move(rng.choice([n for n in names if n != held and not self._in_zone(self.pos[n], 0.01)]))
            return
        if roll < 0.45:
            self.pick(rng.choice(names))
        elif roll < 0.7:
            name = rng.choice([n for n in names if n not in self.inside])
            target = rng.choice([n for n in names if n != name])
            end = self.push_end(name, target)
            if end is not None and not (self.kind[name] == CONTAINER and self._in_zone(end, 0.01)):
                self.push(name, target, end)
        elif roll < 0.85:
            self.rotate(rng.choice(names))
        elif roll < 0.93:
            self.steps.append(_step("idle"))
        else:
            self.move(None)

    def finish(self) -> dict:
        """Close the plan with steps that meet a composite task; returns the task."""
        if self.held is not None:
            self.tilt(self.rng.choice(self.targets({self.held} | self.contents(self.held))))
        bottle = self.rng.choice([n for n, k in self.kind.items() if k == BOTTLE])
        item = self.rng.choice([n for n, k in self.kind.items() if k == ITEM])
        self.rotate(bottle)
        self.pick(item)
        pour, box = self.rng.sample(self.targets({item}), 2)
        self.tilt(pour)
        self.pick(item)
        self.place(box)
        return {
            "kind": "composite",
            "parts": [
                {"kind": "open-bottle", "object_class": bottle},
                {"kind": "pour", "object_class": item, "target_class": pour},
                {"kind": "pick-place", "object_class": item, "target_class": box},
            ],
        }


FINISH_STEPS = 12  # upper bound on the steps finish() emits


def long_plan(n_objects: int, n_steps: int, rng: random.Random) -> tuple[dict, list[dict]]:
    """A scenario of ``n_objects`` objects and an executable plan of exactly ``n_steps`` steps."""
    world = LongWorld(n_objects, rng)
    scenario = world.scenario()
    while len(world.steps) < n_steps - FINISH_STEPS - 1:  # an action emits at most two steps
        world.random_action()
    body = len(world.steps)
    scenario["task"] = world.finish()
    tail = world.steps[body:]
    world.steps[body:] = [_step("idle")] * (n_steps - body - len(tail)) + tail
    return scenario, world.steps
