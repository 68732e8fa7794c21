"""Deterministic 2D tabletop world executing bound plans step by step.

Motion is teleport-style: each primitive rewrites poses directly, with no
kinematics or time integration. Semantics per primitive:

  idle    no-op.
  move    gripper (and held object, and that object's contents if it is a
          container) translates to the bound pose; with no bound pose it
          goes to the delivery zone, and arriving at the zone releases the
          held object, standing in for handing it over.
  pick    requires an empty gripper within reach of the bound object; the
          gripper closes on it and the object tracks the gripper afterward.
  place   requires a held object and a container target that does not ride
          inside it; the object is set at the container center and recorded
          as inside it, so it rides along when the container later moves.
  push    requires an empty gripper; the bound object translates along the
          line toward the target object until their separation equals the
          contact distance.
  tilt    requires a held object and a container target within reach; marks
          a poured-into relation and sets the held object down on the spot.
  rotate  turns the bound object's cap by the configured angle; enough
          accumulated turn marks the object opened.

Every primitive either returns a new world or a failure reason with the
world untouched, so a failed step is atomic. At most one object is held at
any time and its position equals the gripper position.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Mapping

from .actions import ActionPrimitive
from .jsondoc import array, load_json, positive, record, vector
from .planner import BoundAction, BoundPlan, bound_action_to_json
from .pose import ObjectPose

ITEM = "item"
CONTAINER = "container"
BOTTLE = "bottle"
KINDS = (ITEM, CONTAINER, BOTTLE)
_TASK_KINDS = ("composite", "pick-place", "push-away", "open-bottle", "pour", "deliver")

_SEP_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Execution thresholds; all lengths in meters, angles in radians."""

    reach: float = 0.05
    contact: float = 0.04
    cap_turn_angle: float = 6.0 * math.pi  # three full turns per rotate step
    open_turn_angle: float = 6.0 * math.pi  # accumulated turn that counts as opened


@dataclass(frozen=True)
class SimObject:
    class_name: str
    x: float
    y: float
    theta: float
    radius: float
    kind: str = ITEM
    turned: float = 0.0
    opened: bool = False

    @cached_property
    def _entry(self) -> str:
        """This object's list in the digest document, encoded once per instance.

        The cache is keyed on the instance, never on the value: -0.0 == 0.0,
        but the two encode differently. replace() builds a new instance, so a
        changed object is encoded again.
        """
        return json.dumps(
            [self.class_name, self.x, self.y, self.theta, self.radius, self.kind, self.turned, self.opened]
        )


@dataclass(frozen=True)
class Gripper:
    x: float
    y: float
    holding: str | None = None
    closed: bool = False


@dataclass(frozen=True)
class DeliveryZone:
    x: float
    y: float
    radius: float


@dataclass(frozen=True)
class WorldState:
    width: float
    height: float
    objects: Mapping[str, SimObject]
    gripper: Gripper
    zone: DeliveryZone | None = None
    inside: Mapping[str, str] = field(default_factory=dict)  # object id -> container id
    poured: frozenset[tuple[str, str]] = frozenset()
    clock: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", dict(self.objects))
        object.__setattr__(self, "inside", dict(self.inside))
        object.__setattr__(self, "poured", frozenset(self.poured))


@dataclass(frozen=True)
class TaskSpec:
    """Success predicate parameters for one task."""

    kind: str
    object_class: str | None = None
    target_class: str | None = None
    containment_radius: float | None = None
    separation: float | None = None
    parts: tuple["TaskSpec", ...] = ()


@dataclass(frozen=True)
class TraceStep:
    index: int
    action: BoundAction
    pre_digest: str
    post_digest: str
    outcome: str  # "ok" or "failed"
    reason: str | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def all_ok(self) -> bool:
        return all(s.outcome == "ok" for s in self.steps)

    @property
    def failure(self) -> TraceStep | None:
        for s in self.steps:
            if s.outcome == "failed":
                return s
        return None


def digest(world: WorldState) -> str:
    """Deterministic hash of the full world state.

    The payload is json.dumps(doc, sort_keys=True) of the document
    {"clock", "gripper", "height", "inside", "objects", "poured", "width",
    "zone"}, with each object as [class, x, y, theta, radius, kind, turned,
    opened] under its id. The keys are written in sorted order here, and the
    objects are spliced in from their cached entries.
    """
    g, z = world.gripper, world.zone
    head = json.dumps(
        {
            "clock": world.clock,
            "gripper": [g.x, g.y, g.holding, g.closed],
            "height": world.height,
            "inside": dict(sorted(world.inside.items())),
        }
    )
    tail = json.dumps(
        {
            "poured": sorted(world.poured),
            "width": world.width,
            "zone": None if z is None else [z.x, z.y, z.radius],
        }
    )
    objects = ", ".join(f"{_quote(oid)}: {o._entry}" for oid, o in sorted(world.objects.items()))
    payload = f'{head[:-1]}, "objects": {{{objects}}}, {tail[1:]}'
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


class _Refused(Exception):
    """A precondition of the step failed; the message is the reason."""


def _find(world: WorldState, pose: ObjectPose) -> str:
    """Nearest world object of the pose's class to the bound pose; ties by id."""
    best: tuple[float, str] | None = None
    for oid in sorted(world.objects):
        obj = world.objects[oid]
        if obj.class_name != pose.class_name:
            continue
        d = _dist(obj.x, obj.y, pose.x, pose.y)
        if best is None or d < best[0]:
            best = (d, oid)
    if best is None:
        raise _Refused(f"no {pose.class_name} in the world")
    return best[1]


def _reach(world: WorldState, oid: str, cfg: SimConfig) -> SimObject:
    """The object, refused when it lies beyond the gripper's reach."""
    obj = world.objects[oid]
    d = _dist(world.gripper.x, world.gripper.y, obj.x, obj.y)
    if d > cfg.reach:
        raise _Refused(f"{oid} out of reach (d={d:.3f} m > {cfg.reach} m)")
    return obj


def _contents(world: WorldState, container_id: str) -> set[str]:
    """Ids riding inside a container, following nesting."""
    out: set[str] = set()
    frontier = [container_id]
    while frontier:
        cid = frontier.pop()
        for oid, parent in world.inside.items():
            if parent == cid and oid not in out:
                out.add(oid)
                frontier.append(oid)
    return out


def _translate_group(world: WorldState, ids: Iterable[str], dx: float, dy: float) -> dict[str, SimObject]:
    objects = dict(world.objects)
    for oid in ids:
        obj = objects[oid]
        objects[oid] = replace(obj, x=obj.x + dx, y=obj.y + dy)
    return objects


def _in_bounds(world: WorldState, objects: Mapping[str, SimObject]) -> bool:
    return all(0.0 <= o.x <= world.width and 0.0 <= o.y <= world.height for o in objects.values())


def _carry(world: WorldState, x: float, y: float, verb: str) -> dict[str, SimObject]:
    """Objects after the held object, with its contents, moves to (x, y)."""
    objects = dict(world.objects)
    held = world.gripper.holding
    if held is not None:
        start = world.objects[held]
        objects = _translate_group(world, _contents(world, held), x - start.x, y - start.y)
        # the held object lands on the gripper exactly, not within an ulp
        objects[held] = replace(objects[held], x=x, y=y)
    if not _in_bounds(world, objects):
        raise _Refused(f"{verb} would push an object out of the workspace")
    return objects


def _container(world: WorldState, act: BoundAction, verb: str, into: str) -> tuple[str, str]:
    """Held id and container id for a place or tilt into the bound target."""
    held = world.gripper.holding
    if held is None:
        raise _Refused(f"{verb} while not holding")
    if act.target is None:
        raise _Refused(f"{verb} has no bound target")
    cid = _find(world, act.target)
    if world.objects[cid].kind != CONTAINER:
        raise _Refused(f"{verb} target {cid} is not a container")
    if held == cid:
        raise _Refused(f"cannot {into} an object into itself")
    return held, cid


def apply_primitive(
    world: WorldState, act: BoundAction, cfg: SimConfig = SimConfig()
) -> tuple[WorldState, str | None]:
    """Execute one bound primitive.

    Returns (new world, None) on success or (unchanged world, reason) on a
    precondition failure.
    """
    p = act.primitive
    gripper = world.gripper
    try:
        if p == ActionPrimitive.IDLE:
            new = world

        elif p == ActionPrimitive.MOVE:
            dest = act.anchor()
            if dest is not None:
                dx, dy = dest.x, dest.y
            elif world.zone is not None:
                dx, dy = world.zone.x, world.zone.y
            else:
                raise _Refused("move has no destination and the world has no delivery zone")
            objects = _carry(world, dx, dy, "move")
            handover = world.zone is not None and _dist(dx, dy, world.zone.x, world.zone.y) <= world.zone.radius
            if handover and gripper.holding is not None:
                gripper = replace(gripper, holding=None, closed=False)
            new = replace(world, gripper=replace(gripper, x=dx, y=dy), objects=objects)

        elif p == ActionPrimitive.PICK:
            if act.primary is None:
                raise _Refused("pick has no bound object")
            if gripper.holding is not None:
                raise _Refused(f"pick while holding {gripper.holding}")
            oid = _find(world, act.primary)
            obj = _reach(world, oid, cfg)
            gripper = replace(gripper, x=obj.x, y=obj.y, holding=oid, closed=True)
            new = replace(world, gripper=gripper, inside={k: v for k, v in world.inside.items() if k != oid})

        elif p == ActionPrimitive.PLACE:
            held, cid = _container(world, act, "place", "place")
            if cid in _contents(world, held):
                raise _Refused(f"cannot place {held} into {cid}, which is inside it")
            container = world.objects[cid]
            objects = _carry(world, container.x, container.y, "place")
            gripper = replace(gripper, x=container.x, y=container.y, holding=None, closed=False)
            new = replace(world, objects=objects, gripper=gripper, inside={**world.inside, held: cid})

        elif p == ActionPrimitive.PUSH:
            if act.primary is None or act.target is None:
                raise _Refused("push needs two bound objects")
            if gripper.holding is not None:
                raise _Refused("push while holding")  # the gripper body does the pushing
            pid, tid = _find(world, act.primary), _find(world, act.target)
            if pid == tid:
                raise _Refused("push needs two distinct objects")
            po, to = world.objects[pid], world.objects[tid]
            d = _dist(po.x, po.y, to.x, to.y)
            if d <= cfg.contact:
                new = replace(world, gripper=replace(gripper, x=po.x, y=po.y))
            elif d == 0.0:
                raise _Refused("push objects are coincident")
            else:
                ux, uy = (to.x - po.x) / d, (to.y - po.y) / d
                nx, ny = to.x - cfg.contact * ux, to.y - cfg.contact * uy
                group = {pid} | (_contents(world, pid) if po.kind == CONTAINER else set())
                objects = _translate_group(world, group, nx - po.x, ny - po.y)
                if not _in_bounds(world, objects):
                    raise _Refused("push would leave the workspace")
                new = replace(world, objects=objects, gripper=replace(gripper, x=nx, y=ny))

        elif p == ActionPrimitive.TILT:
            held, tid = _container(world, act, "tilt", "pour")
            _reach(world, tid, cfg)
            # pouring done: set the object down where it is and open the gripper
            gripper = replace(gripper, holding=None, closed=False)
            new = replace(world, poured=world.poured | {(held, tid)}, gripper=gripper)

        elif p == ActionPrimitive.ROTATE:
            if act.primary is None:
                raise _Refused("rotate has no bound object")
            oid = _find(world, act.primary)
            obj = world.objects[oid] if gripper.holding == oid else _reach(world, oid, cfg)
            turned = obj.turned + cfg.cap_turn_angle
            objects = dict(world.objects)
            objects[oid] = replace(
                obj,
                theta=(obj.theta + cfg.cap_turn_angle) % (2.0 * math.pi),
                turned=turned,
                opened=obj.opened or turned >= cfg.open_turn_angle - _SEP_TOL,
            )
            new = replace(world, objects=objects)

        else:  # pragma: no cover - the enum is closed
            raise ValueError(f"unknown primitive {p!r}")
    except _Refused as refused:
        return world, str(refused)
    return replace(new, clock=new.clock + 1), None


def run_plan(
    world: WorldState, plan: BoundPlan, cfg: SimConfig = SimConfig()
) -> tuple[ExecutionTrace, WorldState]:
    """Apply plan steps in order, halting at the first failure."""
    steps: list[TraceStep] = []
    current = world
    for idx, act in enumerate(plan.steps):
        pre = digest(current)
        nxt, reason = apply_primitive(current, act, cfg)
        post = digest(nxt)
        if reason is None:
            steps.append(TraceStep(idx, act, pre, post, "ok"))
            current = nxt
        else:
            steps.append(TraceStep(idx, act, pre, post, "failed", reason))
            break
    return ExecutionTrace(steps=tuple(steps)), current


def _classes(world: WorldState, class_name: str) -> list[SimObject]:
    return [o for oid, o in sorted(world.objects.items()) if o.class_name == class_name]


def check_success(trace: ExecutionTrace, final: WorldState, spec: TaskSpec, cfg: SimConfig = SimConfig()) -> bool:
    """Evaluate the task's geometric/symbolic success predicate on the end state."""
    kind = spec.kind
    if kind == "composite":
        return all(check_success(trace, final, part, cfg) for part in spec.parts)
    if kind == "pick-place":
        movers = _classes(final, spec.object_class or "")
        containers = _classes(final, spec.target_class or "")
        for mover in movers:
            for container in containers:
                radius = spec.containment_radius if spec.containment_radius is not None else container.radius
                if _dist(mover.x, mover.y, container.x, container.y) <= radius + _SEP_TOL:
                    return True
        return False
    if kind == "push-away":
        sep = spec.separation if spec.separation is not None else cfg.contact
        for mover in _classes(final, spec.object_class or ""):
            for goal in _classes(final, spec.target_class or ""):
                if mover is goal:
                    continue
                if _dist(mover.x, mover.y, goal.x, goal.y) <= sep + _SEP_TOL:
                    return True
        return False
    if kind == "open-bottle":
        return any(o.opened for o in _classes(final, spec.object_class or ""))
    if kind == "pour":
        for src, dst in final.poured:
            so, do = final.objects.get(src), final.objects.get(dst)
            if so is None or do is None:
                continue
            if so.class_name == spec.object_class and do.class_name == spec.target_class:
                return True
        return False
    if kind == "deliver":
        if final.zone is None:
            return False
        return any(
            _dist(o.x, o.y, final.zone.x, final.zone.y) <= final.zone.radius + _SEP_TOL
            for o in _classes(final, spec.object_class or "")
        )
    raise ValueError(f"unknown task kind {kind!r}")


def _task_from_json(doc: object, name: str = "task") -> TaskSpec:
    doc = record(doc, name)
    kind = str(doc["kind"])
    if kind not in _TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}")
    if not all(isinstance(doc.get(k), (str, type(None))) for k in ("object_class", "target_class")):
        raise ValueError(f"{name} object_class and target_class must be strings")
    bounds = {k: positive(doc[k], f"{name} {k}") for k in ("containment_radius", "separation") if doc.get(k) is not None}
    parts = array(doc["parts"], f"{name} parts", nonempty=True) if kind == "composite" else ()
    return TaskSpec(
        kind=kind,
        object_class=doc.get("object_class"),
        target_class=doc.get("target_class"),
        parts=tuple(_task_from_json(part, f"{name} part") for part in parts),
        **bounds,
    )


def load_scenario(path: str | Path) -> tuple[WorldState, TaskSpec, SimConfig]:
    """Read a scenario file into a world, its task spec, and thresholds.

    A missing field, a field of the wrong JSON type, a non-finite number, a
    non-positive size, radius or threshold, a repeated object id, an object,
    gripper start or delivery zone centred outside the workspace, or a
    composite task without parts is a ValueError.
    """
    doc = record(load_json(path, "scenario"), "scenario")
    width, height = (positive(v, "workspace size") for v in vector(doc["workspace"], 2, "workspace size"))

    def on_table(pose: tuple[float, ...], what: str) -> tuple[float, ...]:
        if not (0.0 <= pose[0] <= width and 0.0 <= pose[1] <= height):
            raise ValueError(f"{what} lies outside the workspace")
        return pose

    objects: dict[str, SimObject] = {}
    for obj in array(doc["objects"], "scenario objects"):
        obj = record(obj, "scenario object")
        what = f"object {obj.get('id')!r}"
        kind = str(obj.get("kind", ITEM))
        if kind not in KINDS:
            raise ValueError(f"{what} has unknown kind {kind!r}")
        x, y, theta = on_table(vector(obj["pose"], 3, f"{what} pose"), what)
        radius = positive(obj["radius"], f"{what} radius")
        oid = str(obj["id"])
        if oid in objects:
            raise ValueError(f"object id {oid!r} is not unique")
        objects[oid] = SimObject(class_name=str(obj["class"]), x=x, y=y, theta=theta, radius=radius, kind=kind)
    zone = None
    if doc.get("delivery_zone") is not None:
        z = record(doc["delivery_zone"], "delivery zone")
        zx, zy = on_table(vector(z["pose"], 2, "delivery zone pose"), "delivery zone")
        zone = DeliveryZone(x=zx, y=zy, radius=positive(z["radius"], "delivery zone radius"))
    gx, gy = on_table(vector(doc.get("gripper_start", [0.0, 0.0]), 2, "gripper start"), "gripper start")
    thresholds = record(doc.get("thresholds", {}), "thresholds")
    cfg = SimConfig(
        **{
            name: positive(thresholds.get(name, getattr(SimConfig, name)), f"threshold {name}")
            for name in ("reach", "contact", "cap_turn_angle", "open_turn_angle")
        }
    )
    task = _task_from_json(doc["task"])
    if task.kind == "push-away" and task.separation is None:
        task = replace(task, separation=cfg.contact)
    world = WorldState(width=width, height=height, objects=objects, gripper=Gripper(x=gx, y=gy), zone=zone)
    return world, task, cfg


def trace_to_jsonl(trace: ExecutionTrace) -> str:
    """One JSON object per executed step."""
    lines = []
    for step in trace.steps:
        lines.append(
            json.dumps(
                {
                    "step": step.index,
                    "action": bound_action_to_json(step.action),
                    "pre": step.pre_digest,
                    "post": step.post_digest,
                    "outcome": step.outcome,
                    "reason": step.reason,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
