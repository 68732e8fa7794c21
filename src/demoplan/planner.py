"""Bind a key action sequence to concrete scene objects.

Each key primitive is grounded against the sensed scene using the
co-occurrence model: a step fills the slots of its entry in CONTRACTS, which
validate_plan and the simulator read too, from the head of the candidates
ordered by (-N(action, obj), name), the argmax of P(obj | action) with ties
broken by name. The binder walks a holding flag so that the object in the
gripper shapes later queries:

  - the held class is never a candidate,
  - classes already picked earlier in the plan are candidates only for
    place (a demonstration handles each object at most once),
  - rotate grounds to the held object when there is one.

``move`` has no object of its own: it is bound to the pose of the object the
next grounded step works on (an approach waypoint). A trailing move with no
such step is left unbound, which the executor reads as "go to the delivery
zone", standing in for handing the object to a person.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple, Sequence

from .actions import ActionPrimitive, KeySequence, primitive
from .jsondoc import array, flag, load_json, number, record, text
from .knowledge import CooccurrenceModel, rank_candidates
from .pose import ObjectPose

NORMAL = "normal"
LOW_CONFIDENCE = "low-confidence"


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
    containers: frozenset[str] | None = None  # the classes a place or tilt may target; None if unknown, as in a loaded plan

    def __len__(self) -> int:
        return len(self.steps)


class Contract(NamedTuple):
    """What an object-taking primitive binds and needs of the gripper.

    A primitive that needs a held object sets it into its target, which must
    be a container; the held object stands for its primary (tilt's pour).
    """

    slots: tuple[str, ...]  # bound in candidate order from an empty gripper
    empty: str  # the refusal of a step that leaves a slot empty
    no_candidate: str | None  # binding error of a one-object step; a pair says how many it had
    needs: bool | None  # the gripper must hold (True), be empty (False) or either (None)
    leaves: bool | None  # afterwards the gripper holds (True), is empty (False) or is unchanged (None)

    def bound(self, holding: bool) -> tuple[str, ...]:
        """The slots a step binds from the candidates: only the target once the object it needs is held."""
        return self.slots[-1:] if holding and self.needs else self.slots


CONTRACTS = {
    ActionPrimitive.PICK: Contract(("primary",), "pick has no bound object", "no candidate object left to pick", False, True),
    ActionPrimitive.PLACE: Contract(("target",), "place has no bound target", "no candidate target for place", True, False),
    ActionPrimitive.ROTATE: Contract(("primary",), "rotate has no bound object", "no candidate object to rotate", None, None),
    ActionPrimitive.PUSH: Contract(("primary", "target"), "push needs two bound objects", None, False, None),
    ActionPrimitive.TILT: Contract(("primary", "target"), "tilt has no bound target", "no candidate pour target", True, False),
}


def unfilled(step: BoundAction, contract: Contract) -> str | None:
    """The contract's refusal when the step leaves a slot it must fill empty (tilt: its target), else None."""
    for slot in contract.bound(bool(contract.needs)):
        if getattr(step, slot) is None:
            return contract.empty
    return None


def bind_plan(
    keys: KeySequence,
    poses: Sequence[ObjectPose],
    model: CooccurrenceModel,
) -> BoundPlan:
    """Ground every key primitive against the sensed scene poses.

    Each grounded step fills the slots its contract binds for the current
    gripper state with the first rank_candidates, the first pose of each
    class standing for it; the step is low confidence when the last of them
    has no count. Candidates are the detected classes other than the held one
    and, except for place, the ones already picked.

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
        contract = CONTRACTS.get(key)
        if contract is None:  # a move is resolved against the next grounded step below
            steps.append(None if key == ActionPrimitive.MOVE else BoundAction(key))
            continue
        if key == ActionPrimitive.ROTATE and holding is not None:
            steps.append(BoundAction(key, primary=first_pose[holding]))
            continue
        slots = contract.bound(holding is not None)
        pool = first_pose.keys() - {holding} - (set() if key == ActionPrimitive.PLACE else picked)
        if len(pool) < len(slots):
            reason = contract.no_candidate if len(slots) == 1 else f"{key.value} needs two detected objects, got {len(pool)}"
            raise BindingError(idx, reason)
        chosen = rank_candidates(model, key, pool)[: len(slots)]
        confidence = LOW_CONFIDENCE if model.count(key, chosen[-1]) == 0 else NORMAL
        steps.append(BoundAction(key, confidence=confidence, **{s: first_pose[o] for s, o in zip(slots, chosen)}))
        if contract.leaves:
            picked.add(chosen[0])
            holding = chosen[0]
        elif contract.leaves is False:
            holding = None  # a placed or poured object stays by the target

    # Each move approaches the anchor of the next grounded step, if any.
    approach: ObjectPose | None = None
    for idx in reversed(range(len(steps))):
        step = steps[idx]
        if step is None:
            steps[idx] = BoundAction(ActionPrimitive.MOVE, target=approach)
        elif step.anchor() is not None:
            approach = step.anchor()

    return BoundPlan(steps=tuple(steps), containers=model.containers)


def validate_plan(plan: BoundPlan) -> list[str]:
    """Check slot completeness, gripper consistency and that each place or
    tilt target is one of plan.containers, the lexicon's containers. A plan
    whose containers are unknown (None), such as a loaded one, skips that check.

    Returns an ordered list of human-readable violations; empty means valid.
    A step's gripper and slot violations come in the order
    sim.apply_primitive refuses them: ``while not holding``, the empty slot,
    then ``while holding``. A bound target that is not a container is named
    first, as the pinned bench tables record it.
    """
    violations: list[str] = []
    holding = False
    for idx, step in enumerate(plan.steps):
        p = step.primitive
        contract = CONTRACTS.get(p)
        if contract is None:
            if p == ActionPrimitive.IDLE and (step.primary is not None or step.target is not None):
                violations.append(f"step {idx}: idle must not carry poses")
            elif p == ActionPrimitive.MOVE and step.primary is not None:
                violations.append(f"step {idx}: move carries a pose in the wrong slot")
            continue
        empty = unfilled(step, contract)
        if empty is None and contract.needs and plan.containers is not None and step.target.class_name not in plan.containers:
            violations.append(f"step {idx}: {p.value} target '{step.target.class_name}' is not a container")
        if contract.needs and not holding:
            violations.append(f"step {idx}: {p.value} while not holding")
        if empty is not None:
            violations.append(f"step {idx}: {empty}")
        if contract.needs is False and holding:
            violations.append(f"step {idx}: {p.value} while holding")
        if contract.leaves is not None:
            holding = contract.leaves
    return violations


def _pose_from_json(doc: object, name: str) -> ObjectPose | None:
    if doc is None:
        return None
    doc = record(doc, name, ("x", "y", "theta", "class", "degenerate"))
    return ObjectPose(
        x=number(doc["x"], f"{name} x"),
        y=number(doc["y"], f"{name} y"),
        theta=number(doc["theta"], f"{name} theta"),
        class_name=text(doc["class"], f"{name} class"),
        degenerate=flag(doc.get("degenerate", False), f"{name} degenerate"),
    )


def _pose_text(pose: ObjectPose | None, start: str = "{", sep: str = ", ", end: str = "}") -> str:
    """The pose as json.dumps writes {"class", "degenerate", "theta", "x", "y"} with sorted keys, spliced.

    start, sep and end open, separate and close its items: one line by default.
    str writes a finite number as json does; NaN and the infinities take json's spelling.
    """
    if pose is None:
        return "null"
    x, y, theta = pose.x, pose.y, pose.theta
    if not (x - x == 0 and y - y == 0 and theta - theta == 0):
        x, y, theta = json.dumps(x), json.dumps(y), json.dumps(theta)
    return (
        f'{start}"class": {_quote(pose.class_name)}{sep}"degenerate": {"true" if pose.degenerate else "false"}'
        f'{sep}"theta": {theta!s}{sep}"x": {x!s}{sep}"y": {y!s}{end}'
    )


def action_json(step: BoundAction, start: str = "{", sep: str = ", ", end: str = "}",
                pose_start: str = "{", pose_sep: str = ", ", pose_end: str = "}") -> str:
    """The step as json.dumps writes {"confidence", "primary", "primitive", "target"} with sorted keys, spliced.

    Its layout and its poses' are given as _pose_text's; a trace line holds the default, one line.
    """
    primary = _pose_text(step.primary, pose_start, pose_sep, pose_end)
    target = _pose_text(step.target, pose_start, pose_sep, pose_end)
    return (
        f'{start}"confidence": {_quote(step.confidence)}{sep}"primary": {primary}'
        f'{sep}"primitive": {_quote(step.primitive.value)}{sep}"target": {target}{end}'
    )


def plan_text(plan: BoundPlan) -> str:
    """The plan file's text: json.dumps(steps, indent=2, sort_keys=True) with one trailing newline, spliced by action_json."""
    if not plan.steps:
        return "[]\n"
    steps = [action_json(s, "{\n    ", ",\n    ", "\n  }", "{\n      ", ",\n      ", "\n    }") for s in plan.steps]
    return "[\n  " + ",\n  ".join(steps) + "\n]\n"


def dump_plan(plan: BoundPlan, path: str | Path) -> str:
    """Write the plan file and return its text."""
    text = plan_text(plan)
    Path(path).write_text(text, encoding="utf-8")
    return text


def load_plan(path: str | Path) -> BoundPlan:
    """Read a plan file; a key plan_text does not write, or an unknown primitive or confidence, is a ValueError naming it."""
    steps = []
    for i, item in enumerate(array(load_json(path, "plan"), "plan")):
        item = record(item, f"plan step {i}", ("primitive", "primary", "target", "confidence"))
        confidence = text(item.get("confidence", NORMAL), f"plan step {i} confidence")
        if confidence not in (NORMAL, LOW_CONFIDENCE):
            raise ValueError(f"plan step {i} confidence must be {NORMAL!r} or {LOW_CONFIDENCE!r}, not {confidence!r}")
        steps.append(
            BoundAction(
                primitive=primitive(item["primitive"], f"plan step {i} primitive"),
                primary=_pose_from_json(item.get("primary"), f"plan step {i} primary"),
                target=_pose_from_json(item.get("target"), f"plan step {i} target"),
                confidence=confidence,
            )
        )
    return BoundPlan(steps=tuple(steps))
