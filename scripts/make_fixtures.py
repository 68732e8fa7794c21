#!/usr/bin/env python3
"""Regenerate the geometry-derived fixture pack.

Writes, per task: the mask file (mixing point-list and run-length object
encodings), the scenario file whose object poses are computed from those
masks through the shipped calibration, the golden key sequence, and a clean
30-frames-per-key label stream. Also writes calibration.json. The corpus
and lexicon are hand-curated and not touched here.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from demoplan.actions import dump_label_stream, keys_from_names, synthesize_stream
from demoplan.pose import Calibration, load_mask_file, sense_scene

FIXTURES = ROOT / "src" / "demoplan" / "fixtures"

SCALE = 0.0015  # meters per pixel; 600 px -> 0.90 m workspace
IMAGE_SIZE = (600, 600)
WORKSPACE = (0.9, 0.9)

RADIUS = {"item": 0.030, "container": 0.060, "bottle": 0.030}

# class -> (kind, mask width px, mask height px); odd dims keep centroids integral
SHAPES = {
    "banana": ("item", 41, 17),
    "grape": ("item", 21, 15),
    "croissant": ("item", 41, 23),
    "apple": ("item", 23, 23),
    "toy-train": ("item", 49, 21),
    "corn": ("item", 45, 17),
    "plastic-box": ("container", 45, 45),
    "paper-box": ("container", 45, 45),
    "blue-bottle": ("bottle", 17, 41),
    "black-bottle": ("bottle", 17, 41),
}

KEYS = {
    "pick_place": ["idle", "move", "pick", "move", "place"],
    "push_away": ["idle", "move", "push"],
    "open_bottle": ["idle", "move", "rotate"],
    "pour": ["idle", "move", "pick", "move", "tilt"],
    "deliver": ["idle", "move", "pick", "move"],
    "composite_1": ["idle"]
    + ["move", "pick", "move", "place"] * 3
    + ["move", "pick", "move"],
    "composite_2": ["idle", "move", "rotate", "pick", "move", "tilt", "pick", "move"],
}

# task -> (objects [(class, pixel center)], delivery zone or None, task spec)
SCENES = {
    "pick_place": (
        [("banana", (200, 200)), ("plastic-box", (400, 400))],
        None,
        {"kind": "pick-place", "object_class": "banana", "target_class": "plastic-box"},
    ),
    "push_away": (
        [("grape", (200, 200)), ("croissant", (400, 200))],
        None,
        {"kind": "push-away", "object_class": "grape", "target_class": "croissant"},
    ),
    "open_bottle": (
        [("blue-bottle", (200, 300)), ("paper-box", (400, 300))],
        None,
        {"kind": "open-bottle", "object_class": "blue-bottle"},
    ),
    "pour": (
        [("blue-bottle", (200, 300)), ("paper-box", (400, 300))],
        None,
        {"kind": "pour", "object_class": "blue-bottle", "target_class": "paper-box"},
    ),
    "deliver": (
        [("grape", (200, 300))],
        {"pose": [0.80, 0.45], "radius": 0.08},
        {"kind": "deliver", "object_class": "grape"},
    ),
    "composite_1": (
        [
            ("plastic-box", (300, 400)),
            ("apple", (100, 200)),
            ("toy-train", (233, 100)),
            ("corn", (400, 167)),
        ],
        {"pose": [0.80, 0.75], "radius": 0.08},
        {
            "kind": "composite",
            "parts": [
                {"kind": "pick-place", "object_class": "apple", "target_class": "plastic-box"},
                {"kind": "pick-place", "object_class": "toy-train", "target_class": "plastic-box"},
                {"kind": "pick-place", "object_class": "corn", "target_class": "plastic-box"},
                {"kind": "deliver", "object_class": "plastic-box"},
            ],
        },
    ),
    "composite_2": (
        [("blue-bottle", (200, 300)), ("paper-box", (366, 300))],
        {"pose": [0.80, 0.75], "radius": 0.08},
        {
            "kind": "composite",
            "parts": [
                {"kind": "open-bottle", "object_class": "blue-bottle"},
                {"kind": "pour", "object_class": "blue-bottle", "target_class": "paper-box"},
                {"kind": "deliver", "object_class": "paper-box"},
            ],
        },
    ),
}

FRAMES_PER_KEY = 30


def rect_points(cx: int, cy: int, w: int, h: int) -> list[list[int]]:
    x0, y0 = cx - (w - 1) // 2, cy - (h - 1) // 2
    return [[x0 + i, y0 + j] for j in range(h) for i in range(w)]


def rect_rle_rows(cx: int, cy: int, w: int, h: int) -> list[list[int]]:
    x0, y0 = cx - (w - 1) // 2, cy - (h - 1) // 2
    return [[y0 + j, x0, w] for j in range(h)]


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    cal = Calibration(scale=SCALE, origin=(0.0, 0.0))
    write_json(
        FIXTURES / "calibration.json",
        {"scale": SCALE, "origin": [0.0, 0.0], "image_size": list(IMAGE_SIZE)},
    )

    for task, (objects, zone, task_spec) in SCENES.items():
        mask_objects = []
        for idx, (cls, (cx, cy)) in enumerate(objects):
            kind, w, h = SHAPES[cls]
            # alternate encodings so both parsers stay exercised
            if idx % 2 == 0:
                mask_objects.append({"class": cls, "rle_rows": rect_rle_rows(cx, cy, w, h)})
            else:
                mask_objects.append({"class": cls, "points": rect_points(cx, cy, w, h)})
        mask_doc = {"image_size": list(IMAGE_SIZE), "objects": mask_objects}
        mask_path = FIXTURES / f"masks_{task}.json"
        write_json(mask_path, mask_doc)

        # scenario poses come from the masks themselves so that the planner's
        # sensed poses and the simulator's world agree exactly
        scenario_objects = []
        for i, pose in enumerate(sense_scene(load_mask_file(mask_path), cal)):
            kind = SHAPES[pose.class_name][0]
            scenario_objects.append(
                {
                    "id": f"{pose.class_name}-{i}",
                    "class": pose.class_name,
                    "kind": kind,
                    "pose": [pose.x, pose.y, pose.theta],
                    "radius": RADIUS[kind],
                }
            )
        scenario = {
            "workspace": list(WORKSPACE),
            "objects": scenario_objects,
            "delivery_zone": zone,
            "gripper_start": [0.05, 0.05],
            "task": task_spec,
            "thresholds": {"reach": 0.05, "contact": 0.04},
        }
        write_json(FIXTURES / f"scenario_{task}.json", scenario)

        keys = keys_from_names(KEYS[task])
        write_json(FIXTURES / f"keys_{task}.json", [k.value for k in keys])
        stream = synthesize_stream(keys, FRAMES_PER_KEY, noise_rate=0.0, seed=0)
        dump_label_stream(stream, FIXTURES / f"labels_{task}.jsonl")

    print(f"wrote fixtures for {len(SCENES)} tasks into {FIXTURES}")


if __name__ == "__main__":
    main()
