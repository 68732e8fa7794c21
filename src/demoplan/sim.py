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
          contact distance. A pushed object leaves the container it was in;
          a pushed container takes its contents along.
  tilt    requires a held object and a container target within reach; marks
          a poured-into relation and sets the held object down on the spot.
  rotate  turns the bound object's cap by the configured angle; enough
          accumulated turn marks the object opened.

What a primitive needs of the gripper, empty or holding, is its
planner.CONTRACTS entry's ``needs``: apply_primitive refuses on it and on
the contract's slots before the primitive's step runs. Every primitive
either returns a new world or a failure reason with the world untouched, so
a failed step is atomic. At most one object is held at any time and its
position equals the gripper position.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .actions import ActionPrimitive
from .jsondoc import array, load_json, positive, record, text, vector
from .planner import CONTRACTS, BoundAction, BoundPlan, action_json, unfilled
from .pose import ObjectPose

ITEM = "item"
CONTAINER = "container"
BOTTLE = "bottle"
KINDS = (ITEM, CONTAINER, BOTTLE)

_SEP_TOL = 1e-9


class _cached:
    """functools.cached_property without its lock: the first read stores the value in the instance's dict.

    A later read finds it there before the descriptor, which has no __set__. On
    Python 3.11 cached_property takes an RLock on every first read, which costs
    as much as the encoding it guards here. Two threads that read it at once
    may both compute it; the instance is frozen, so both store equal values.
    """

    def __init__(self, method):
        self.method, self.__doc__ = method, method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.method.__name__] = self.method(instance)
        return value


@dataclass(frozen=True)
class SimConfig:
    """Execution thresholds, stored as floats; all lengths in meters, angles in radians.

    A threshold that is not a finite positive number is a ValueError.
    """

    reach: float = 0.05
    contact: float = 0.04
    cap_turn_angle: float = 6.0 * math.pi  # three full turns per rotate step
    open_turn_angle: float = 6.0 * math.pi  # accumulated turn that counts as opened

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, positive(getattr(self, f.name), f"threshold {f.name}"))


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

    @_cached
    def _entry(self) -> str:
        """json.dumps([class_name, x, y, theta, radius, kind, turned, opened]), spliced once per instance.

        The cache is keyed on the instance, never on the value: -0.0 == 0.0,
        but the two encode differently. The simulator builds a moved or turned
        object as a new instance, so a changed object is encoded again. The
        numbers are written as _head writes them; an entry with NaN, an
        infinity or an opened that is not a bool is written by json.dumps.
        """
        x, y, theta, radius, turned, opened = self.x, self.y, self.theta, self.radius, self.turned, self.opened
        if not (x - x == y - y == theta - theta == radius - radius == turned - turned == 0 and type(opened) is bool):
            return json.dumps([self.class_name, x, y, theta, radius, self.kind, turned, opened])
        return (
            f"[{_quote(self.class_name)}, {x!r}, {y!r}, {theta!r}, {radius!r}, {_quote(self.kind)}, {turned!r}, "
            f'{"true" if opened else "false"}]'
        )


class Gripper(NamedTuple):
    """Where the gripper is and the id it holds; it is closed exactly when it holds one."""

    x: float
    y: float
    holding: str | None = None


@dataclass(frozen=True)
class DeliveryZone:
    x: float
    y: float
    radius: float


def _private(items: Mapping) -> MappingProxyType:
    """A read-only view over a private copy; a proxy copies through its dict's copy()."""
    return MappingProxyType(items.copy() if isinstance(items, MappingProxyType) else dict(items))


@dataclass(frozen=True)
class WorldState:
    """One immutable world state.

    The constructor copies objects and inside into new read-only views and
    poured into a frozenset, so neither a later edit of the caller's dicts
    nor a write through the views can change a state. Its digest is
    therefore computed once per instance and cached, as are its encoded
    fragments: inside, poured, the objects (joined from each object's cached
    entry), the id order (each object id in sorted order with its encoded
    key) and the frame of height, width and zone. A constructed state
    starts with empty caches. successor(), which apply_primitive uses,
    copies only what a step passes anew and hands on every other field and
    fragment as it is; it keeps the id order for new objects with the same ids.
    """

    width: float
    height: float
    objects: Mapping[str, SimObject]
    gripper: Gripper
    zone: DeliveryZone | None = None
    inside: Mapping[str, str] = field(default_factory=dict)  # object id -> container id
    poured: frozenset[tuple[str, str]] = frozenset()
    clock: int = 0

    def __post_init__(self) -> None:
        for f, view in _VIEW.items():
            object.__setattr__(self, f, view(getattr(self, f)))

    def successor(self, **changes) -> WorldState:
        """The state the constructor would build from this state's fields and changes, without its copies.

        A field that changes passes as a new object is taken as the
        constructor takes it: objects and inside into new read-only views over
        copies, poured into a frozenset. Every other field stays this state's own
        object, the objects and inside views included, and so does each cached
        fragment none of whose fields changed. A field is unchanged only as the
        same object (is, not ==): -0.0 == 0.0, but the two encode differently.
        The id order is kept while the ids are equal, for equal strings encode alike.
        """
        state = self.__dict__.copy()  # the fields and the cached fragments; _digest is never handed on
        state.pop("_digest", None)
        for f, value in changes.items():
            if value is not state[f]:
                if f in _VIEW:
                    value = _VIEW[f](value)
                    if f == "objects" and value.keys() != state[f].keys():
                        state.pop("_order", None)
                state[f] = value
                if f in _FRAGMENT:
                    state.pop(_FRAGMENT[f], None)
        nxt = object.__new__(WorldState)
        object.__setattr__(nxt, "__dict__", state)  # the instance takes the copy as its dict, with no second copy
        return nxt

    @_cached
    def _inside(self) -> str:
        """json.dumps(dict(sorted(inside.items()))), spliced."""
        return "{%s}" % ", ".join([f"{_quote(oid)}: {_quote(cid)}" for oid, cid in sorted(self.inside.items())])

    @_cached
    def _poured(self) -> str:
        """json.dumps(sorted(poured)), spliced."""
        return "[%s]" % ", ".join([f"[{_quote(src)}, {_quote(dst)}]" for src, dst in sorted(self.poured)])

    @_cached
    def _order(self) -> tuple[tuple[str, str], ...]:
        """Each object id in sorted order with its key in the objects document, '"id": '."""
        return tuple((oid, f"{_quote(oid)}: ") for oid in sorted(self.objects))

    @_cached
    def _objects(self) -> str:
        objects = self.objects
        return ", ".join([key + objects[oid]._entry for oid, key in self._order])

    @_cached
    def _frame(self) -> tuple[str, str, str]:
        z = self.zone
        return tuple(map(json.dumps, (self.height, self.width, None if z is None else [z.x, z.y, z.radius])))

    @_cached
    def _digest(self) -> str:
        """The sha256 hex of the digest payload (see digest); only clock and gripper are encoded anew here."""
        height, width, zone = self._frame
        head = _head(self.clock, self.gripper)
        payload = (
            f'{head[:-1]}, "height": {height}, "inside": {self._inside}, "objects": {{{self._objects}}}, '
            f'"poured": {self._poured}, "width": {width}, "zone": {zone}}}'
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _head(clock: int, g: Gripper) -> str:
    """json.dumps({"clock": clock, "gripper": [g.x, g.y, g.holding, g.holding is not None]}), spliced.

    The gripper is closed exactly when it holds an object, so the entry's last
    element is derived, not stored. x - x == 0 holds for every finite number,
    so repr writes the coordinates as json does; NaN or an infinity goes to
    json's own spelling.
    """
    x, y, held = g
    if not (x - x == 0 and y - y == 0):
        return json.dumps({"clock": clock, "gripper": [x, y, held, held is not None]})
    holding = "null, false" if held is None else f"{_quote(held)}, true"
    return f'{{"clock": {clock!r}, "gripper": [{x!r}, {y!r}, {holding}]}}'


# each WorldState field that a cached digest fragment encodes, and that fragment
_FRAGMENT = dict(inside="_inside", poured="_poured", objects="_objects", height="_frame", width="_frame", zone="_frame")
# the copy a state takes of each field it is given anew
_VIEW = dict(objects=_private, inside=_private, poured=frozenset)


@dataclass(frozen=True)
class TaskSpec:
    """Success predicate parameters for one task."""

    kind: str
    object_class: str | None = None
    target_class: str | None = None
    containment_radius: float | None = None
    separation: float | None = None
    parts: tuple["TaskSpec", ...] = ()


class TraceStep(NamedTuple):
    index: int
    action: BoundAction
    pre_digest: str
    post_digest: str
    reason: str | None = None  # why the step was refused; None for a step that ran

    @property
    def outcome(self) -> str:
        """The step's outcome word, as a trace line writes it: "ok" exactly when reason is None, else "failed"."""
        return "ok" if self.reason is None else "failed"


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def all_ok(self) -> bool:
        return self.failure is None

    @property
    def failure(self) -> TraceStep | None:
        for s in self.steps:
            if s.reason is not None:
                return s
        return None


def digest(world: WorldState) -> str:
    """Deterministic hash of the full world state, read from the state's cache.

    The payload is json.dumps(doc, sort_keys=True) of the document
    {"clock", "gripper", "height", "inside", "objects", "poured", "width",
    "zone"}, with the gripper as [x, y, holding, holding is not None] and
    each object as [class, x, y, theta, radius, kind, turned, opened] under
    its id. The keys are written in sorted order. Only clock
    and gripper are encoded for each state; the rest is spliced in from the
    fragments a state caches or inherits (see WorldState). A state is hashed
    the first time its digest is asked for; every later call returns it.
    """
    return world._digest


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


class _Refused(Exception):
    """A precondition of the step failed; the message is the reason."""


def _find(world: WorldState, pose: ObjectPose) -> str:
    """Nearest world object of the pose's class to the bound pose; ties by id."""
    objects = world.objects
    near = [(_dist(o.x, o.y, pose.x, pose.y), oid) for oid, o in objects.items() if o.class_name == pose.class_name]
    if not near:
        raise _Refused(f"no {pose.class_name} in the world")
    return min(near)[1]


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


def _same(a: float, b: float) -> bool:
    """a and b encode alike: the same type and value, and the same sign of zero."""
    return type(a) is type(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _shift(world: WorldState, ids: Iterable[str], dx: float, dy: float) -> dict[str, tuple[float, float]]:
    objects = world.objects
    return {oid: (objects[oid].x + dx, objects[oid].y + dy) for oid in ids}


def _moved(world: WorldState, group: dict[str, tuple[float, float]], refusal: str) -> Mapping[str, SimObject]:
    """Objects with each of the group at its new (x, y); world.objects itself when none would encode differently.

    Only the group is bounds-checked: every other object is in the workspace already.
    """
    objects = world.objects
    if all(_same(objects[oid].x, x) and _same(objects[oid].y, y) for oid, (x, y) in group.items()):
        return objects
    if not all(0.0 <= x <= world.width and 0.0 <= y <= world.height for x, y in group.values()):
        raise _Refused(refusal)
    out = objects.copy()
    for oid, (x, y) in group.items():
        o = objects[oid]
        out[oid] = SimObject(o.class_name, x, y, o.theta, o.radius, o.kind, o.turned, o.opened)
    return out


def _carry(world: WorldState, contents: Iterable[str], x: float, y: float, verb: str) -> Mapping[str, SimObject]:
    """Objects after the held object, with its contents, moves to (x, y)."""
    held = world.gripper.holding
    start = world.objects[held]
    group = _shift(world, contents, x - start.x, y - start.y)
    group[held] = (x, y)  # the held object lands on the gripper exactly, not within an ulp
    return _moved(world, group, f"{verb} would push an object out of the workspace")


def _container(world: WorldState, act: BoundAction, verb: str, into: str) -> tuple[str, str]:
    """Held id and container id for a place or tilt into the bound target."""
    held = world.gripper.holding
    cid = _find(world, act.target)
    if world.objects[cid].kind != CONTAINER:
        raise _Refused(f"{verb} target {cid} is not a container")
    if held == cid:
        raise _Refused(f"cannot {into} an object into itself")
    return held, cid


def _move(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    dest, zone, held = act.anchor(), world.zone, world.gripper.holding
    if dest is not None:
        dx, dy = dest.x, dest.y
    elif zone is not None:
        dx, dy = zone.x, zone.y
    else:
        raise _Refused("move has no destination and the world has no delivery zone")
    objects = world.objects if held is None else _carry(world, _contents(world, held), dx, dy, "move")
    handover = zone is not None and _dist(dx, dy, zone.x, zone.y) <= zone.radius
    return {"gripper": Gripper(dx, dy, None if handover else held), "objects": objects}


def _leave(world: WorldState, oid: str) -> Mapping[str, str]:
    """world.inside without oid's own entry: oid has left its container, while its own contents stay in it."""
    return {k: c for k, c in world.inside.items() if k != oid} if oid in world.inside else world.inside


def _pick(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    oid = _find(world, act.primary)
    obj = _reach(world, oid, cfg)
    return {"gripper": Gripper(obj.x, obj.y, oid), "inside": _leave(world, oid)}


def _place(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    held, cid = _container(world, act, "place", "place")
    contents = _contents(world, held)
    if cid in contents:
        raise _Refused(f"cannot place {held} into {cid}, which is inside it")
    container = world.objects[cid]
    objects = _carry(world, contents, container.x, container.y, "place")
    inside = world.inside.copy()
    inside[held] = cid
    return {"objects": objects, "gripper": Gripper(container.x, container.y), "inside": inside}


def _push(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    pid, tid = _find(world, act.primary), _find(world, act.target)
    if pid == tid:
        raise _Refused("push needs two distinct objects")
    po, to = world.objects[pid], world.objects[tid]
    d = _dist(po.x, po.y, to.x, to.y)
    if d <= cfg.contact:  # SimConfig keeps contact positive, so d > 0 below
        return {"gripper": Gripper(po.x, po.y)}
    ux, uy = (to.x - po.x) / d, (to.y - po.y) / d
    nx, ny = to.x - cfg.contact * ux, to.y - cfg.contact * uy
    group = {pid} | (_contents(world, pid) if po.kind == CONTAINER else set())
    objects = _moved(world, _shift(world, group, nx - po.x, ny - po.y), "push would leave the workspace")
    return {"objects": objects, "gripper": Gripper(nx, ny), "inside": _leave(world, pid)}


def _tilt(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    held, tid = _container(world, act, "tilt", "pour")
    _reach(world, tid, cfg)
    # pouring done: set the object down where it is and open the gripper
    return {"poured": world.poured | {(held, tid)}, "gripper": Gripper(world.gripper.x, world.gripper.y)}


def _rotate(world: WorldState, act: BoundAction, cfg: SimConfig) -> dict:
    oid = _find(world, act.primary)
    obj = world.objects[oid] if world.gripper.holding == oid else _reach(world, oid, cfg)
    turned = obj.turned + cfg.cap_turn_angle
    theta = (obj.theta + cfg.cap_turn_angle) % (2.0 * math.pi)
    opened = obj.opened or turned >= cfg.open_turn_angle - _SEP_TOL
    objects = world.objects.copy()
    objects[oid] = SimObject(obj.class_name, obj.x, obj.y, theta, obj.radius, obj.kind, turned, opened)
    return {"objects": objects}


# each primitive's step: the state changes it makes, or _Refused with the reason
_STEP = {
    ActionPrimitive.IDLE: lambda world, act, cfg: {},
    ActionPrimitive.MOVE: _move,
    ActionPrimitive.PICK: _pick,
    ActionPrimitive.PLACE: _place,
    ActionPrimitive.PUSH: _push,
    ActionPrimitive.TILT: _tilt,
    ActionPrimitive.ROTATE: _rotate,
}


def apply_primitive(
    world: WorldState, act: BoundAction, cfg: SimConfig = SimConfig()
) -> tuple[WorldState, str | None]:
    """Execute one bound primitive.

    Returns (new world, None) on success or (unchanged world, reason) on a
    precondition failure. A primitive of planner.CONTRACTS is refused from its
    contract before its step runs, in this order: a step that needs a held
    object while the gripper is empty (``place while not holding``), then an
    empty slot in the contract's words, then a step that needs an empty
    gripper while holding (``push while holding``; pick, the one primitive
    that leaves the gripper holding, names the held id).
    """
    try:
        contract = CONTRACTS.get(act.primitive)
        if contract is not None:
            held = world.gripper.holding
            if contract.needs and held is None:
                raise _Refused(f"{act.primitive.value} while not holding")
            empty = unfilled(act, contract)
            if empty is not None:
                raise _Refused(empty)
            if contract.needs is False and held is not None:
                raise _Refused(f"{act.primitive.value} while holding" + (f" {held}" if contract.leaves else ""))
        changes = _STEP[act.primitive](world, act, cfg)
    except _Refused as refused:
        return world, str(refused)
    return world.successor(clock=world.clock + 1, **changes), None


def run_plan(
    world: WorldState, plan: BoundPlan, cfg: SimConfig = SimConfig()
) -> tuple[ExecutionTrace, WorldState]:
    """Apply plan steps in order, halting at the first failure."""
    steps: list[TraceStep] = []
    current = world
    for idx, act in enumerate(plan.steps):
        pre = digest(current)
        nxt, reason = apply_primitive(current, act, cfg)
        steps.append(TraceStep(idx, act, pre, digest(nxt), reason))
        if reason is not None:
            break
        current = nxt
    return ExecutionTrace(steps=tuple(steps)), current


def check_invariants(world: WorldState, start: WorldState) -> list[str]:
    """The simulator invariants that world breaks, given the state it was run from.

    The gripper holds at most one object, which exists and sits exactly at
    the gripper; containment relates existing objects, has no cycle and keeps
    each contained object within 1e-9 of its container's position; every
    object lies inside the workspace; the object ids are those of start. An
    empty list means every invariant holds. run_plan does not call this, so
    checking costs nothing unless a caller asks for it.
    """
    out: list[str] = []
    objects, inside = world.objects, world.inside
    held = world.gripper.holding
    if held is not None:
        obj = objects.get(held)
        if obj is None:
            out.append(f"held object {held} does not exist")
        elif (obj.x, obj.y) != (world.gripper.x, world.gripper.y):
            out.append(f"held object {held} is not at the gripper")
    for child, parent in sorted(inside.items()):
        if child not in objects or parent not in objects:
            out.append(f"{child} inside {parent} names a missing object")
        elif _dist(objects[child].x, objects[child].y, objects[parent].x, objects[parent].y) > _SEP_TOL:
            out.append(f"{child} inside {parent} lies away from it")
        node, seen = parent, {child}
        while node in inside and node not in seen:
            seen.add(node)
            node = inside[node]
        if node == child:
            out.append(f"containment cycle through {child}")
    for oid, o in sorted(objects.items()):
        if not (0.0 <= o.x <= world.width and 0.0 <= o.y <= world.height):
            out.append(f"{oid} lies outside the workspace")
    if objects.keys() != start.objects.keys():
        out.append(f"object ids changed: {len(start.objects)} -> {len(objects)}")
    return out


def _classes(world: WorldState, class_name: str | None) -> list[SimObject]:
    """The objects of a class."""
    return [o for o in world.objects.values() if o.class_name == class_name]


def _near(movers: list[SimObject], goals: list[tuple[SimObject | DeliveryZone, float]], skip_self: bool = False) -> bool:
    """Some mover lies within r, plus _SEP_TOL, of some (goal, r); skip_self passes over a mover that is its goal."""
    return any(
        _dist(m.x, m.y, g.x, g.y) <= r + _SEP_TOL for m in movers for g, r in goals if not (skip_self and m is g)
    )


def _composite(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    return all(_predicate(part.kind)(final, part, cfg) for part in spec.parts)


def _pick_place(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    """The object lies within containment_radius of a target object, or with none given, within its radius."""
    r = spec.containment_radius
    goals = [(c, c.radius if r is None else r) for c in _classes(final, spec.target_class)]
    return _near(_classes(final, spec.object_class), goals)


def _push_away(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    """The object lies within separation of a target object other than itself; with none given, within contact."""
    sep = cfg.contact if spec.separation is None else spec.separation
    goals = [(g, sep) for g in _classes(final, spec.target_class)]
    return _near(_classes(final, spec.object_class), goals, skip_self=True)


def _open_bottle(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    return any(o.opened for o in _classes(final, spec.object_class))


def _pour(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    """An object of the class was poured into a target object, and both are still in the world."""
    objects = final.objects
    poured = {(objects[s].class_name, objects[d].class_name) for s, d in final.poured if s in objects and d in objects}
    return (spec.object_class, spec.target_class) in poured


def _deliver(final: WorldState, spec: TaskSpec, cfg: SimConfig) -> bool:
    zone = final.zone
    return zone is not None and _near(_classes(final, spec.object_class), [(zone, zone.radius)])


# each task kind's whole schema: its success predicate on (final state, spec, thresholds), the fields
# it must name (the classes the predicate reads, or a composite's parts), and the one bound it may take
_SUCCESS = {
    "composite": (_composite, ("parts",), None),
    "pick-place": (_pick_place, ("object_class", "target_class"), "containment_radius"),
    "push-away": (_push_away, ("object_class", "target_class"), "separation"),
    "open-bottle": (_open_bottle, ("object_class",), None),
    "pour": (_pour, ("object_class", "target_class"), None),
    "deliver": (_deliver, ("object_class",), None),
}


def _predicate(kind: str):
    if kind not in _SUCCESS:
        raise ValueError(f"unknown task kind {kind!r}")
    return _SUCCESS[kind][0]


def check_success(trace: ExecutionTrace, final: WorldState, spec: TaskSpec, cfg: SimConfig = SimConfig()) -> bool:
    """Evaluate the task's geometric/symbolic success predicate on the end state; an unknown kind is a ValueError.

    Every predicate tests the end state only, so the trace is not read.
    """
    return _predicate(spec.kind)(final, spec, cfg)


def _task_from_json(doc: object, name: str = "task") -> TaskSpec:
    doc = record(doc, name)
    kind = text(doc["kind"], f"{name} kind")
    if kind not in _SUCCESS:
        raise ValueError(f"{name} kind: unknown task kind {kind!r}")
    if kind == "composite" and name != "task":  # a composite's parts are plain tasks, so nothing nests deeper
        raise ValueError(f"{name} of kind 'composite' is refused: a composite's parts are plain tasks")
    _, names, bound = _SUCCESS[kind]
    record(doc, f"{name} of kind {kind!r}", ("kind", bound, *names))
    for k in names:
        if doc.get(k) is None:
            raise ValueError(f"{name} of kind {kind!r} names no {k}")
    spec = {k: text(doc[k], f"{name} {k}") for k in names if k != "parts"}
    if doc.get(bound) is not None:
        spec[bound] = positive(doc[bound], f"{name} {bound}")
    parts = array(doc["parts"], f"{name} parts", nonempty=True) if "parts" in names else ()
    return TaskSpec(kind, parts=tuple(_task_from_json(part, f"{name} part {i}") for i, part in enumerate(parts)), **spec)


def load_scenario(path: str | Path) -> tuple[WorldState, TaskSpec, SimConfig]:
    """Read a scenario file into a world, its task spec, and thresholds.

    A missing field, a key its level does not take, a field of the wrong JSON
    type, a non-finite number, a non-positive size, radius or threshold, a
    repeated object id, an object, gripper start or delivery zone centred
    outside the workspace, an empty composite, a composite part that is not a
    plain task, or a task that lacks a field of its kind's _SUCCESS entry is
    a ValueError.
    """
    keys = ("workspace", "objects", "delivery_zone", "gripper_start", "thresholds", "task")
    doc = record(load_json(path, "scenario"), "scenario", keys)
    width, height = (positive(v, "workspace size") for v in vector(doc["workspace"], 2, "workspace size"))

    def on_table(pose: tuple[float, ...], what: str) -> tuple[float, ...]:
        if not (0.0 <= pose[0] <= width and 0.0 <= pose[1] <= height):
            raise ValueError(f"{what} lies outside the workspace")
        return pose

    objects: dict[str, SimObject] = {}
    for i, obj in enumerate(array(doc["objects"], "scenario objects")):
        obj = record(obj, f"scenario object {i}", ("id", "class", "kind", "pose", "radius"))
        what = f"object {obj.get('id')!r}"
        kind = text(obj.get("kind", ITEM), f"{what} kind")
        if kind not in KINDS:
            raise ValueError(f"{what} has unknown kind {kind!r}")
        x, y, theta = on_table(vector(obj["pose"], 3, f"{what} pose"), what)
        radius = positive(obj["radius"], f"{what} radius")
        oid = text(obj["id"], f"{what} id")
        if oid in objects:
            raise ValueError(f"object id {oid!r} is not unique")
        name = text(obj["class"], f"{what} class")
        objects[oid] = SimObject(class_name=name, x=x, y=y, theta=theta, radius=radius, kind=kind)
    zone = None
    if doc.get("delivery_zone") is not None:
        z = record(doc["delivery_zone"], "delivery zone", ("pose", "radius"))
        zx, zy = on_table(vector(z["pose"], 2, "delivery zone pose"), "delivery zone")
        zone = DeliveryZone(x=zx, y=zy, radius=positive(z["radius"], "delivery zone radius"))
    gx, gy = on_table(vector(doc.get("gripper_start", [0.0, 0.0]), 2, "gripper start"), "gripper start")
    cfg = SimConfig(**record(doc.get("thresholds", {}), "thresholds", [f.name for f in fields(SimConfig)]))
    world = WorldState(width=width, height=height, objects=objects, gripper=Gripper(x=gx, y=gy), zone=zone)
    return world, _task_from_json(doc["task"]), cfg


def trace_to_jsonl(trace: ExecutionTrace) -> str:
    """One JSON object per executed step.

    Each line is the text json.dumps(line, sort_keys=True) gives for the line
    {"action", "outcome", "post", "pre", "reason", "step"}, spliced in that
    key order from its values, each encoded as json would encode it: the
    action by planner.action_json, the strings by json's own ASCII quoting.
    The outcome is "ok" exactly when the reason is null.
    """
    return "".join(
        f'{{"action": {action_json(s.action)}, "outcome": "{"ok" if s.reason is None else "failed"}", '
        f'"post": {_quote(s.post_digest)}, "pre": {_quote(s.pre_digest)}, '
        f'"reason": {"null" if s.reason is None else _quote(s.reason)}, "step": {s.index}}}\n'
        for s in trace.steps
    )
