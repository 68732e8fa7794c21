"""Bind a key action sequence to concrete scene objects.

Each key primitive is grounded against the sensed scene using the
co-occurrence model: a step takes as many objects as it acts on from the
head of the candidates ordered by (-N(action, obj), name), which is the
argmax of P(obj | action) with ties broken by name. The binder walks a
holding flag so that the object in the gripper shapes later queries:

  - the held class is never a candidate,
  - classes already picked earlier in the plan are candidates only for
    place (a demonstration handles each object at most once),
  - tilt while holding needs only a target; the held object is implicit and
    is set down when the pour finishes,
  - rotate grounds to the held object when there is one.

``move`` has no object of its own: it is bound to the pose of the object the
next grounded step works on (an approach waypoint). A trailing move with no
such step is left unbound, which the executor reads as "go to the delivery
zone", standing in for handing the object to a person.

Bound plan slots: pick/rotate carry their object in ``primary``; place and
tilt carry the destination in ``target``; push carries both; move carries an
approach pose in ``target`` or nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .actions import ActionPrimitive, KeySequence
from .jsondoc import array, flag, load_json, number, record, text
from .knowledge import CooccurrenceModel, rank_candidates
from .pose import ObjectPose

NORMAL = "normal"
LOW_CONFIDENCE = "low-confidence"

_CONTAINER_CLASSES = frozenset(
    {"plate", "white plate", "bowl", "cup", "plastic-box", "paper-box"}
)


class BindingError(RuntimeError):
    """Binding failed at a specific plan step."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


@dataclass(frozen=True)
class BoundAction:
    primitive: ActionPrimitive
    primary: ObjectPose | None = None
    target: ObjectPose | None = None
    confidence: str = NORMAL

    def anchor(self) -> ObjectPose | None:
        """The pose the end effector must reach to perform this step."""
        return self.primary if self.primary is not None else self.target


@dataclass(frozen=True)
class BoundPlan:
    steps: tuple[BoundAction, ...]
    keys: tuple[ActionPrimitive, ...]  # provenance: the source key sequence

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def arity(primitive: ActionPrimitive, holding: bool) -> int:
    """Number of objects a primitive interacts with.

    pick/place/rotate involve one object; push and tilt involve two, except
    that tilt while holding needs only the pour target because the poured
    object is already in the gripper.
    """
    if primitive in (ActionPrimitive.IDLE, ActionPrimitive.MOVE):
        return 0
    if primitive in (ActionPrimitive.PICK, ActionPrimitive.PLACE, ActionPrimitive.ROTATE):
        return 1
    if primitive == ActionPrimitive.PUSH:
        return 2
    if primitive == ActionPrimitive.TILT:
        return 1 if holding else 2
    raise ValueError(f"unknown primitive {primitive!r}")


# Why a one-object step finds nothing to bind; a two-object step says how
# many candidates it had instead.
_NO_CANDIDATE = {
    ActionPrimitive.PICK: "no candidate object left to pick",
    ActionPrimitive.PLACE: "no candidate target for place",
    ActionPrimitive.ROTATE: "no candidate object to rotate",
    ActionPrimitive.TILT: "no candidate pour target",
}


def bind_plan(
    keys: KeySequence,
    poses: Sequence[ObjectPose],
    model: CooccurrenceModel,
) -> BoundPlan:
    """Ground every key primitive against the sensed scene poses.

    Each grounded step binds the first arity(key, holding) candidates in
    rank_candidates order, the first pose of each class standing for it; the
    step is low confidence when the last of them has no count. Candidates are
    the detected classes other than the held one and, except for place, the
    ones already picked.

    Raises BindingError when a step cannot be grounded at all (for example a
    two-object action with fewer than two candidate objects). Ill-ordered
    sequences (place before pick) still bind; validate_plan reports them.
    """
    first_pose: dict[str, ObjectPose] = {}
    for pose in poses:
        first_pose.setdefault(pose.class_name, pose)
    holding: str | None = None
    picked: set[str] = set()
    steps: list[BoundAction | None] = []

    for idx, key in enumerate(keys):
        k = arity(key, holding is not None)
        if k == 0:  # a move is resolved against the next grounded step below
            steps.append(None if key == ActionPrimitive.MOVE else BoundAction(key))
            continue
        if key == ActionPrimitive.ROTATE and holding is not None:
            steps.append(BoundAction(key, primary=first_pose[holding]))
            continue
        pool = first_pose.keys() - {holding} - (set() if key == ActionPrimitive.PLACE else picked)
        if len(pool) < k:
            reason = _NO_CANDIDATE[key] if k == 1 else f"{key.value} needs two detected objects, got {len(pool)}"
            raise BindingError(idx, reason)
        chosen = rank_candidates(model, key, pool)[:k]
        target_only = k == 1 and key in (ActionPrimitive.PLACE, ActionPrimitive.TILT)
        slots = ("target",) if target_only else ("primary", "target")[:k]
        confidence = LOW_CONFIDENCE if model.count(key, chosen[-1]) == 0 else NORMAL
        steps.append(BoundAction(key, confidence=confidence, **{s: first_pose[o] for s, o in zip(slots, chosen)}))
        if key == ActionPrimitive.PICK:
            picked.add(chosen[0])
            holding = chosen[0]
        elif key in (ActionPrimitive.PLACE, ActionPrimitive.TILT):
            holding = None  # a poured object is set down beside the target

    # Each move approaches the anchor of the next grounded step, if any.
    approach: ObjectPose | None = None
    for idx in reversed(range(len(steps))):
        step = steps[idx]
        if step is None:
            steps[idx] = BoundAction(ActionPrimitive.MOVE, target=approach)
        elif step.anchor() is not None:
            approach = step.anchor()

    return BoundPlan(steps=tuple(steps), keys=tuple(keys.keys))


def validate_plan(plan: BoundPlan) -> list[str]:
    """Check gripper consistency, slot completeness, and container targets.

    Returns an ordered list of human-readable violations; empty means valid.
    """
    violations: list[str] = []
    holding = False
    for idx, step in enumerate(plan.steps):
        p = step.primitive
        if p == ActionPrimitive.IDLE:
            if step.primary is not None or step.target is not None:
                violations.append(f"step {idx}: idle must not carry poses")
        elif p == ActionPrimitive.MOVE:
            if step.primary is not None:
                violations.append(f"step {idx}: move carries a pose in the wrong slot")
        elif p == ActionPrimitive.PICK:
            if step.primary is None:
                violations.append(f"step {idx}: pick has no bound object")
            if holding:
                violations.append(f"step {idx}: pick while holding")
            holding = True
        elif p in (ActionPrimitive.PLACE, ActionPrimitive.TILT):
            if step.target is None:
                violations.append(f"step {idx}: {p.value} has no bound target")
            elif step.target.class_name not in _CONTAINER_CLASSES:
                violations.append(f"step {idx}: {p.value} target '{step.target.class_name}' is not a container")
            if not holding:
                violations.append(f"step {idx}: {p.value} while not holding")
            holding = False
        elif p == ActionPrimitive.PUSH:
            if step.primary is None or step.target is None:
                violations.append(f"step {idx}: push needs two bound objects")
            if holding:
                violations.append(f"step {idx}: push while holding")
        elif p == ActionPrimitive.ROTATE:
            if step.primary is None:
                violations.append(f"step {idx}: rotate has no bound object")
    return violations


def _pose_to_json(pose: ObjectPose | None) -> dict | None:
    if pose is None:
        return None
    return {
        "x": pose.x,
        "y": pose.y,
        "theta": pose.theta,
        "class": pose.class_name,
        "degenerate": pose.degenerate,
    }


def _pose_from_json(doc: object, name: str) -> ObjectPose | None:
    if doc is None:
        return None
    doc = record(doc, name)
    return ObjectPose(
        x=number(doc["x"], f"{name} x"),
        y=number(doc["y"], f"{name} y"),
        theta=number(doc["theta"], f"{name} theta"),
        class_name=text(doc["class"], f"{name} class"),
        degenerate=flag(doc.get("degenerate", False), f"{name} degenerate"),
    )


def bound_action_to_json(step: BoundAction) -> dict:
    return {
        "primitive": step.primitive.value,
        "primary": _pose_to_json(step.primary),
        "target": _pose_to_json(step.target),
        "confidence": step.confidence,
    }


def plan_to_json(plan: BoundPlan) -> list[dict]:
    return [bound_action_to_json(step) for step in plan.steps]


def dump_plan(plan: BoundPlan, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path: str | Path) -> BoundPlan:
    steps = []
    for i, item in enumerate(array(load_json(path, "plan"), "plan")):
        item = record(item, f"plan step {i}")
        steps.append(
            BoundAction(
                primitive=ActionPrimitive.parse(item["primitive"]),
                primary=_pose_from_json(item.get("primary"), f"plan step {i} primary"),
                target=_pose_from_json(item.get("target"), f"plan step {i} target"),
                confidence=text(item.get("confidence", NORMAL), f"plan step {i} confidence"),
            )
        )
    return BoundPlan(steps=tuple(steps), keys=tuple(s.primitive for s in steps))
