"""Seeded random worlds and bound actions for simulator fuzzing."""

import math
import random

from demoplan.actions import ActionPrimitive
from demoplan.planner import BoundAction
from demoplan.pose import ObjectPose
from demoplan.sim import CONTAINER, DeliveryZone, Gripper, SimObject, WorldState

CLASSES = ["apple", "banana", "grape", "plastic-box", "paper-box", "blue-bottle"]
KINDS = {"plastic-box": CONTAINER, "paper-box": CONTAINER, "blue-bottle": "bottle"}


def random_world(rng: random.Random) -> WorldState:
    objects = {}
    for i in range(rng.randint(1, 5)):
        cls = rng.choice(CLASSES)
        objects[f"{cls}-{i}"] = SimObject(
            class_name=cls,
            x=rng.uniform(0.0, 0.9),
            y=rng.uniform(0.0, 0.9),
            theta=rng.uniform(0.0, math.pi),
            radius=rng.uniform(0.02, 0.08),
            kind=KINDS.get(cls, "item"),
        )
    zone = DeliveryZone(rng.uniform(0, 0.9), rng.uniform(0, 0.9), 0.08) if rng.random() < 0.5 else None
    gripper = Gripper(x=rng.uniform(0, 0.9), y=rng.uniform(0, 0.9))
    if objects and rng.random() < 0.3:
        held = rng.choice(sorted(objects))
        o = objects[held]
        gripper = Gripper(x=o.x, y=o.y, holding=held)
    return WorldState(width=0.9, height=0.9, objects=objects, gripper=gripper, zone=zone)


def random_action(rng: random.Random, world: WorldState) -> BoundAction:
    primitive = rng.choice(list(ActionPrimitive))
    classes = sorted({o.class_name for o in world.objects.values()}) or ["apple"]

    def maybe_pose():
        if rng.random() < 0.15:
            return None
        return ObjectPose(
            x=rng.uniform(-0.2, 1.1),
            y=rng.uniform(-0.2, 1.1),
            theta=0.0,
            class_name=rng.choice(classes + ["ghost"]),
        )

    return BoundAction(primitive, primary=maybe_pose(), target=maybe_pose())


def _pose_doc(pose: ObjectPose | None) -> dict | None:
    """The pose as a plan file or trace line holds it, before encoding."""
    if pose is None:
        return None
    return {"x": pose.x, "y": pose.y, "theta": pose.theta, "class": pose.class_name, "degenerate": pose.degenerate}


def step_doc(step: BoundAction) -> dict:
    """The step as a plan file or trace line holds it, before encoding: the oracle of planner's spliced encoder."""
    return {
        "primitive": step.primitive.value,
        "primary": _pose_doc(step.primary),
        "target": _pose_doc(step.target),
        "confidence": step.confidence,
    }


# numbers json spells in every way it can: ints, ordinary and extreme floats, -0.0 and the non-finite
ODD_NUMBERS = (0, 1, -7, 10**20, 0.0, -0.0, 0.1, -2.5, 1e-300, 5e-324, 1e16, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf)
# names that need json's escapes: quotes, a backslash, a control character, non-ASCII and a surrogate pair
ODD_NAMES = ("apple", "", 'a"b\\c', "tab\there", "äpfel", "箱-1", "emoji \U0001f34e")


def odd_number(rng: random.Random) -> float:
    """An entry of ODD_NUMBERS or a random float of any magnitude and sign."""
    if rng.random() < 0.6:
        return rng.choice(ODD_NUMBERS)
    return rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-320, 308)
