import hashlib
import json
import math
import random
from dataclasses import replace

import pytest
from worldgen import random_action, random_world

from demoplan import fixtures, sim
from demoplan.actions import ActionPrimitive, keys_from_names
from demoplan.knowledge import build_model, load_corpus, load_lexicon
from demoplan.planner import BoundAction, BoundPlan, bind_plan
from demoplan.pose import ObjectPose, load_calibration, load_mask_file, sense_scene
from demoplan.sim import (
    CONTAINER,
    DeliveryZone,
    ExecutionTrace,
    Gripper,
    SimConfig,
    SimObject,
    TaskSpec,
    WorldState,
    apply_primitive,
    check_invariants,
    check_success,
    digest,
    load_scenario,
    run_plan,
    trace_to_jsonl,
)

IDLE = ActionPrimitive.IDLE
MOVE = ActionPrimitive.MOVE
PICK = ActionPrimitive.PICK
PLACE = ActionPrimitive.PLACE
PUSH = ActionPrimitive.PUSH
TILT = ActionPrimitive.TILT
ROTATE = ActionPrimitive.ROTATE

CFG = SimConfig()


def obj(name, x, y, kind="item", radius=0.03):
    return SimObject(class_name=name, x=x, y=y, theta=0.0, radius=radius, kind=kind)


def world_with(objects, gripper=(0.05, 0.05), zone=None):
    return WorldState(
        width=0.9,
        height=0.9,
        objects=objects,
        gripper=Gripper(x=gripper[0], y=gripper[1]),
        zone=zone,
    )


def pose_at(world, oid):
    o = world.objects[oid]
    return ObjectPose(x=o.x, y=o.y, theta=o.theta, class_name=o.class_name)


class TestPick:
    def test_pick_within_reach(self):
        w = world_with({"banana-0": obj("banana", 0.30, 0.30)}, gripper=(0.29, 0.30))
        nxt, reason = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "banana-0")), CFG)
        assert reason is None
        assert nxt.gripper.holding == "banana-0"
        assert nxt.gripper.closed
        assert (nxt.gripper.x, nxt.gripper.y) == (0.30, 0.30)

    def test_pick_out_of_reach_fails_atomically(self):
        w = world_with({"banana-0": obj("banana", 0.30, 0.30)}, gripper=(0.05, 0.05))
        nxt, reason = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "banana-0")), CFG)
        assert reason is not None and "out of reach" in reason
        assert digest(nxt) == digest(w)

    def test_pick_while_holding_fails(self):
        w = world_with({"a-0": obj("apple", 0.30, 0.30), "b-0": obj("banana", 0.32, 0.30)})
        w1, reason = apply_primitive(
            world_with(w.objects, gripper=(0.30, 0.30)),
            BoundAction(PICK, primary=ObjectPose(0.30, 0.30, 0, "apple")),
            CFG,
        )
        assert reason is None
        _, reason = apply_primitive(w1, BoundAction(PICK, primary=ObjectPose(0.32, 0.30, 0, "banana")), CFG)
        assert reason is not None and "holding" in reason

    def test_pick_absent_class_fails(self):
        w = world_with({"a-0": obj("apple", 0.30, 0.30)})
        _, reason = apply_primitive(w, BoundAction(PICK, primary=ObjectPose(0.3, 0.3, 0, "pear")), CFG)
        assert reason is not None and "pear" in reason


class TestMoveAndPlace:
    def test_move_translates_gripper_and_held_object(self):
        w = world_with({"a-0": obj("apple", 0.30, 0.30)}, gripper=(0.30, 0.30))
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "a-0")), CFG)
        w, reason = apply_primitive(
            w, BoundAction(MOVE, target=ObjectPose(0.60, 0.60, 0, "plastic-box")), CFG
        )
        assert reason is None
        assert (w.gripper.x, w.gripper.y) == (0.60, 0.60)
        assert (w.objects["a-0"].x, w.objects["a-0"].y) == (0.60, 0.60)

    def test_place_sets_pose_to_container_center(self):
        w = world_with(
            {
                "a-0": obj("banana", 0.30, 0.30),
                "box-0": obj("plastic-box", 0.60, 0.60, kind=CONTAINER, radius=0.06),
            },
            gripper=(0.30, 0.30),
        )
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "a-0")), CFG)
        w, _ = apply_primitive(w, BoundAction(MOVE, target=pose_at(w, "box-0")), CFG)
        w, reason = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "box-0")), CFG)
        assert reason is None
        assert (w.objects["a-0"].x, w.objects["a-0"].y) == (0.60, 0.60)
        assert w.gripper.holding is None and not w.gripper.closed
        assert w.inside["a-0"] == "box-0"

    def test_place_without_holding_fails(self):
        w = world_with({"box-0": obj("plastic-box", 0.6, 0.6, kind=CONTAINER)})
        _, reason = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "box-0")), CFG)
        assert reason == "place while not holding"

    def test_place_into_non_container_fails(self):
        w = world_with({"a-0": obj("apple", 0.3, 0.3), "b-0": obj("banana", 0.6, 0.6)}, gripper=(0.3, 0.3))
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "a-0")), CFG)
        _, reason = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "b-0")), CFG)
        assert reason is not None and "not a container" in reason

    def test_contents_ride_along_when_container_moves(self):
        w = world_with(
            {
                "a-0": obj("apple", 0.30, 0.30),
                "box-0": obj("plastic-box", 0.45, 0.60, kind=CONTAINER, radius=0.06),
            },
            gripper=(0.30, 0.30),
            zone=DeliveryZone(0.80, 0.75, 0.08),
        )
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "a-0")), CFG)
        w, _ = apply_primitive(w, BoundAction(MOVE, target=pose_at(w, "box-0")), CFG)
        w, _ = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "box-0")), CFG)
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "box-0")), CFG)
        w, reason = apply_primitive(w, BoundAction(MOVE), CFG)  # unbound: delivery
        assert reason is None
        assert (w.objects["box-0"].x, w.objects["box-0"].y) == (0.80, 0.75)
        assert (w.objects["a-0"].x, w.objects["a-0"].y) == (0.80, 0.75)
        assert w.gripper.holding is None  # handover released the box

    def test_place_into_own_contents_fails(self):
        w = world_with(
            {
                "bowl-0": obj("bowl", 0.30, 0.30, kind=CONTAINER, radius=0.06),
                "box-0": obj("plastic-box", 0.32, 0.32, kind=CONTAINER, radius=0.06),
            },
            gripper=(0.30, 0.30),
        )
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "bowl-0")), CFG)
        w, reason = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "box-0")), CFG)
        assert reason is None and w.inside == {"bowl-0": "box-0"}
        w, reason = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "box-0")), CFG)
        assert reason is None
        after, reason = apply_primitive(w, BoundAction(PLACE, target=pose_at(w, "bowl-0")), CFG)
        assert reason == "cannot place box-0 into bowl-0, which is inside it"
        assert digest(after) == digest(w) and w.inside == {"bowl-0": "box-0"}

    def test_unbound_move_without_zone_fails(self):
        w = world_with({"a-0": obj("apple", 0.3, 0.3)})
        _, reason = apply_primitive(w, BoundAction(MOVE), CFG)
        assert reason is not None and "delivery zone" in reason


class TestPush:
    def test_push_stops_at_contact_distance(self):
        w = world_with(
            {"g-0": obj("grape", 0.30, 0.30), "c-0": obj("croissant", 0.60, 0.30)},
            gripper=(0.30, 0.30),
        )
        act = BoundAction(PUSH, primary=pose_at(w, "g-0"), target=pose_at(w, "c-0"))
        nxt, reason = apply_primitive(w, act, CFG)
        assert reason is None
        g = nxt.objects["g-0"]
        assert abs(g.x - 0.56) <= 1e-9 and abs(g.y - 0.30) <= 1e-9
        sep = math.hypot(g.x - 0.60, g.y - 0.30)
        assert abs(sep - CFG.contact) <= 1e-9

    def test_push_along_diagonal(self):
        w = world_with({"g-0": obj("grape", 0.20, 0.20), "c-0": obj("croissant", 0.50, 0.60)})
        act = BoundAction(PUSH, primary=pose_at(w, "g-0"), target=pose_at(w, "c-0"))
        nxt, reason = apply_primitive(w, act, CFG)
        assert reason is None
        g = nxt.objects["g-0"]
        sep = math.hypot(g.x - 0.50, g.y - 0.60)
        assert abs(sep - CFG.contact) <= 1e-9
        # still on the original line
        cross = (g.x - 0.20) * (0.60 - 0.20) - (g.y - 0.20) * (0.50 - 0.20)
        assert abs(cross) <= 1e-12

    def test_push_already_touching_is_a_noop_success(self):
        w = world_with({"g-0": obj("grape", 0.30, 0.30), "c-0": obj("croissant", 0.33, 0.30)})
        act = BoundAction(PUSH, primary=pose_at(w, "g-0"), target=pose_at(w, "c-0"))
        nxt, reason = apply_primitive(w, act, CFG)
        assert reason is None
        assert (nxt.objects["g-0"].x, nxt.objects["g-0"].y) == (0.30, 0.30)

    def test_push_missing_slot_fails(self):
        w = world_with({"g-0": obj("grape", 0.3, 0.3)})
        _, reason = apply_primitive(w, BoundAction(PUSH, primary=pose_at(w, "g-0")), CFG)
        assert reason is not None


class TestTiltAndRotate:
    def make_pour_world(self):
        return world_with(
            {
                "b-0": obj("blue-bottle", 0.30, 0.45, kind="bottle"),
                "box-0": obj("paper-box", 0.60, 0.45, kind=CONTAINER, radius=0.06),
            },
            gripper=(0.30, 0.45),
        )

    def test_tilt_marks_pour_and_releases(self):
        w = self.make_pour_world()
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "b-0")), CFG)
        w, _ = apply_primitive(w, BoundAction(MOVE, target=pose_at(w, "box-0")), CFG)
        w, reason = apply_primitive(w, BoundAction(TILT, target=pose_at(w, "box-0")), CFG)
        assert reason is None
        assert ("b-0", "box-0") in w.poured
        assert w.gripper.holding is None

    def test_tilt_without_holding_fails(self):
        w = self.make_pour_world()
        _, reason = apply_primitive(w, BoundAction(TILT, target=pose_at(w, "box-0")), CFG)
        assert reason == "tilt while not holding"

    def test_tilt_out_of_reach_fails(self):
        w = self.make_pour_world()
        w, _ = apply_primitive(w, BoundAction(PICK, primary=pose_at(w, "b-0")), CFG)
        _, reason = apply_primitive(w, BoundAction(TILT, target=pose_at(w, "box-0")), CFG)
        assert reason is not None and "out of reach" in reason

    def test_rotate_opens_after_full_cap_turn(self):
        w = self.make_pour_world()
        act = BoundAction(ROTATE, primary=pose_at(w, "b-0"))
        nxt, reason = apply_primitive(w, act, CFG)
        assert reason is None
        assert nxt.objects["b-0"].opened
        assert nxt.objects["b-0"].turned == pytest.approx(CFG.cap_turn_angle)

    def test_rotate_accumulates_turn_under_custom_thresholds(self):
        cfg = SimConfig(cap_turn_angle=2 * math.pi, open_turn_angle=6 * math.pi)
        w = self.make_pour_world()
        act = BoundAction(ROTATE, primary=pose_at(w, "b-0"))
        for expect_opened in (False, False, True):
            w, reason = apply_primitive(w, act, cfg)
            assert reason is None
            assert w.objects["b-0"].opened is expect_opened

    def test_rotate_out_of_reach_fails(self):
        w = self.make_pour_world()
        _, reason = apply_primitive(w, BoundAction(ROTATE, primary=pose_at(w, "box-0")), CFG)
        assert reason is not None and "out of reach" in reason


class TestRunPlan:
    def load_task(self, task):
        cal = load_calibration(fixtures.calibration_path())
        model = build_model(load_corpus(fixtures.corpus_path()), load_lexicon(fixtures.lexicon_path()))
        poses = sense_scene(load_mask_file(fixtures.masks_path(task)), cal)
        keys = keys_from_names(json.loads(fixtures.keys_path(task).read_text()))
        plan = bind_plan(keys, poses, model)
        world, spec, cfg = load_scenario(fixtures.scenario_path(task))
        return plan, world, spec, cfg

    def test_pick_place_runs_clean(self):
        plan, world, spec, cfg = self.load_task("pick_place")
        trace, final = run_plan(world, plan, cfg)
        assert len(trace.steps) == 5
        assert trace.all_ok
        box = final.objects["plastic-box-1"]
        banana = final.objects["banana-0"]
        assert math.hypot(box.x - banana.x, box.y - banana.y) <= box.radius
        assert check_success(trace, final, spec, cfg)

    def test_halts_at_first_failure(self):
        plan, world, _, cfg = self.load_task("pick_place")
        # place before pick: reorder the bound steps
        bad = BoundPlan(steps=(plan.steps[4], plan.steps[2]))
        trace, final = run_plan(world, bad, cfg)
        assert len(trace.steps) == 1
        assert trace.steps[0].outcome == "failed"
        assert trace.steps[0].reason == "place while not holding"
        assert digest(final) == digest(world)

    def test_failed_step_keeps_pre_state_digest(self):
        plan, world, _, cfg = self.load_task("pick_place")
        bad = BoundPlan(steps=(plan.steps[4],))
        trace, _ = run_plan(world, bad, cfg)
        step = trace.steps[0]
        assert step.pre_digest == step.post_digest

    def test_composite_2_ends_with_box_in_zone(self):
        plan, world, spec, cfg = self.load_task("composite_2")
        trace, final = run_plan(world, plan, cfg)
        assert trace.all_ok
        assert final.objects["blue-bottle-0"].opened
        assert ("blue-bottle-0", "paper-box-1") in final.poured
        box = final.objects["paper-box-1"]
        assert math.hypot(box.x - final.zone.x, box.y - final.zone.y) <= final.zone.radius
        assert check_success(trace, final, spec, cfg)

    def test_determinism_bit_identical(self):
        plan, world, _, cfg = self.load_task("composite_1")
        trace_a, final_a = run_plan(world, plan, cfg)
        trace_b, final_b = run_plan(world, plan, cfg)
        assert digest(final_a) == digest(final_b)
        assert [s.post_digest for s in trace_a.steps] == [s.post_digest for s in trace_b.steps]
        assert trace_to_jsonl(trace_a) == trace_to_jsonl(trace_b)

    def test_object_count_is_conserved(self):
        for task in fixtures.TASKS:
            plan, world, _, cfg = self.load_task(task)
            _, final = run_plan(world, plan, cfg)
            assert set(final.objects) == set(world.objects)

    def test_each_state_is_hashed_once(self, monkeypatch):
        plan, world, _, cfg = self.load_task("composite_2")
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(sim.hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
        trace, _ = run_plan(world, plan, cfg)
        assert trace.all_ok and len(trace.steps) > 1
        assert len(calls) == len(trace.steps) + 1
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert a.post_digest == b.pre_digest


class TestCheckSuccess:
    def test_banana_at_box_center(self):
        w = world_with(
            {
                "b-0": obj("banana", 0.6, 0.6),
                "box-0": obj("plastic-box", 0.6, 0.6, kind=CONTAINER, radius=0.06),
            }
        )
        spec = TaskSpec(kind="pick-place", object_class="banana", target_class="plastic-box")
        assert check_success(ExecutionTrace(()), w, spec, CFG)

    def test_pushed_object_too_far(self):
        w = world_with({"g-0": obj("grape", 0.3, 0.3), "c-0": obj("croissant", 0.5, 0.3)})
        spec = TaskSpec(kind="push-away", object_class="grape", target_class="croissant", separation=0.04)
        assert not check_success(ExecutionTrace(()), w, spec, CFG)

    def test_composite_conjunction(self):
        w = world_with(
            {
                "a-0": obj("apple", 0.8, 0.75),
                "box-0": obj("plastic-box", 0.8, 0.75, kind=CONTAINER, radius=0.06),
            },
            zone=DeliveryZone(0.80, 0.75, 0.08),
        )
        both = TaskSpec(
            kind="composite",
            parts=(
                TaskSpec(kind="pick-place", object_class="apple", target_class="plastic-box"),
                TaskSpec(kind="deliver", object_class="plastic-box"),
            ),
        )
        assert check_success(ExecutionTrace(()), w, both, CFG)
        missing = TaskSpec(
            kind="composite",
            parts=(TaskSpec(kind="open-bottle", object_class="plastic-box"),) + both.parts,
        )
        assert not check_success(ExecutionTrace(()), w, missing, CFG)

    def test_unknown_kind_rejected(self):
        w = world_with({})
        with pytest.raises(ValueError):
            check_success(ExecutionTrace(()), w, TaskSpec(kind="juggle"), CFG)


class TestScenarioLoader:
    def test_fixture_scenarios_load(self):
        for task in fixtures.TASKS:
            world, spec, cfg = load_scenario(fixtures.scenario_path(task))
            assert world.width == 0.9 and world.height == 0.9
            assert cfg.reach == 0.05 and cfg.contact == 0.04
            assert spec.kind in {"pick-place", "push-away", "open-bottle", "pour", "deliver", "composite"}

    def test_out_of_bounds_object_rejected(self, tmp_path):
        doc = {
            "workspace": [0.9, 0.9],
            "objects": [{"id": "a", "class": "apple", "kind": "item", "pose": [1.5, 0.2, 0], "radius": 0.03}],
            "task": {"kind": "deliver", "object_class": "apple"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="outside the workspace"):
            load_scenario(path)

    def test_unknown_kind_rejected(self, tmp_path):
        doc = {
            "workspace": [0.9, 0.9],
            "objects": [{"id": "a", "class": "apple", "kind": "ghost", "pose": [0.5, 0.2, 0], "radius": 0.03}],
            "task": {"kind": "deliver", "object_class": "apple"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown kind"):
            load_scenario(path)


class TestReadOnlyState:
    def test_items_cannot_be_assigned_or_deleted(self):
        w = replace(world_with({"apple-0": obj("apple", 0.5, 0.5)}), inside={"apple-0": "box-1"})
        for mapping in (w.objects, w.inside):
            with pytest.raises(TypeError):
                mapping["apple-0"] = mapping["apple-0"]
            with pytest.raises(TypeError):
                del mapping["apple-0"]

    def test_the_callers_dicts_stay_the_callers(self):
        objects = {"apple-0": obj("apple", 0.1, 0.2)}
        inside = {"apple-0": "box-0"}
        w = replace(world_with(objects), inside=inside)
        before = digest(w)
        objects["apple-0"] = obj("apple", 0.3, 0.4)
        objects["grape-1"] = obj("grape", 0.5, 0.5)
        inside.clear()
        assert dict(w.objects) == {"apple-0": obj("apple", 0.1, 0.2)}
        assert dict(w.inside) == {"apple-0": "box-0"}
        assert digest(w) == before == plain_digest(w)


class TestCheckInvariants:
    def test_each_broken_invariant_is_named(self):
        start = world_with(
            {"box-0": obj("box", 0.5, 0.5, kind=CONTAINER), "bowl-1": obj("bowl", 0.2, 0.2, kind=CONTAINER)}
        )
        broken = replace(
            start,
            objects={**start.objects, "box-0": obj("box", 1.5, 0.5, kind=CONTAINER), "ghost-2": obj("ghost", 0.1, 0.1)},
            gripper=Gripper(x=0.3, y=0.3, holding="bowl-1", closed=True),
            inside={"box-0": "bowl-1", "bowl-1": "box-0", "apple-3": "box-0"},
        )
        assert check_invariants(broken, start) == [
            "held object bowl-1 is not at the gripper",
            "apple-3 inside box-0 names a missing object",
            "containment cycle through bowl-1",
            "containment cycle through box-0",
            "box-0 lies outside the workspace",
            "object ids changed: 2 -> 3",
        ]
        missing = replace(start, gripper=Gripper(x=0.3, y=0.3, holding="cup-9", closed=True))
        assert check_invariants(missing, start) == ["held object cup-9 does not exist"]


class TestRandomizedInvariants:
    def test_atomicity_and_holding_exclusivity(self):
        rng = random.Random(2024)
        world = random_world(rng)
        for step in range(2000):
            if step % 50 == 0:
                world = start = random_world(rng)
            act = random_action(rng, world)
            pre = digest(world)
            nxt, reason = apply_primitive(world, act, CFG)
            if reason is not None:
                assert digest(nxt) == pre, f"failed step mutated the world: {act}"
            else:
                world = nxt
            # holding exclusivity: a held object sits exactly at the gripper
            held = world.gripper.holding
            if held is not None:
                o = world.objects[held]
                assert (o.x, o.y) == (world.gripper.x, world.gripper.y)
            # conservation and bounds
            assert all(0 <= o.x <= 0.9 and 0 <= o.y <= 0.9 for o in world.objects.values())
            assert check_invariants(world, start) == []


class TestReasonSignature:
    """Every reason string and resulting world of a seeded fuzz, pinned by one hash."""

    CONFIGS = (CFG, SimConfig(reach=0.5, contact=0.1, cap_turn_angle=math.pi, open_turn_angle=2.5 * math.pi))
    EXPECTED = "bff5c41a2020294ffa590b8f45daa4340667d679547cfa5fe268a8676b87ade6"

    def test_reasons_and_digests_are_unchanged(self):
        h = hashlib.sha256()
        for seed, cfg in enumerate(self.CONFIGS):
            rng = random.Random(seed)
            world = random_world(rng)
            for step in range(25_000):
                if step % 40 == 0:
                    world = random_world(rng)
                nxt, reason = apply_primitive(world, random_action(rng, world), cfg)
                h.update(f"{reason}|{digest(nxt)}\n".encode())
                if reason is None:
                    world = nxt
        assert h.hexdigest() == self.EXPECTED


def plain_digest(world):
    """sha256 of json.dumps over the whole state document, encoded in one go."""
    doc = {
        "width": world.width,
        "height": world.height,
        "clock": world.clock,
        "gripper": [world.gripper.x, world.gripper.y, world.gripper.holding, world.gripper.closed],
        "zone": None if world.zone is None else [world.zone.x, world.zone.y, world.zone.radius],
        "inside": dict(sorted(world.inside.items())),
        "poured": sorted(world.poured),
        "objects": {
            oid: [o.class_name, o.x, o.y, o.theta, o.radius, o.kind, o.turned, o.opened]
            for oid, o in sorted(world.objects.items())
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


class TestDigestEncoding:
    """digest splices cached per-object entries; it must hash the plain encoding's bytes."""

    def test_fuzzed_worlds(self):
        rng = random.Random(7)
        world = random_world(rng)
        for step in range(400):
            if step % 40 == 0:
                world = random_world(rng)
            world, _ = apply_primitive(world, random_action(rng, world), CFG)
            assert digest(world) == plain_digest(world)
            assert digest(world) == plain_digest(world)  # the second call reads the cached value
            successor = replace(world, clock=world.clock + 1)
            assert digest(successor) == plain_digest(successor)

    def test_negative_zero_is_not_zero(self):
        a = world_with({"apple-0": obj("apple", 0.0, 0.5)})
        b = world_with({"apple-0": obj("apple", -0.0, 0.5)})
        assert a == b  # -0.0 == 0.0, and the two compare and hash alike
        assert digest(a) == plain_digest(a) and digest(b) == plain_digest(b)
        assert digest(a) != digest(b)

    def test_quotes_and_non_ascii_in_ids_and_classes(self):
        world = world_with(
            {
                'a"b\\c': obj('cl"ass', 0.1, 0.2),
                "äpfel-0": obj("äpfel", 0.3, 0.4),
                "箱-1": obj("箱", 0.5, 0.6, kind=CONTAINER),
            }
        )
        world = replace(world, inside={'a"b\\c': "箱-1"}, poured={("äpfel-0", "箱-1")})
        assert digest(world) == plain_digest(world)

    def test_zone_empty_world_and_relations(self):
        empty = world_with({})
        zoned = world_with({}, zone=DeliveryZone(0.8, 0.75, 0.08))
        full = WorldState(
            width=1,
            height=0.9,
            objects={"box-0": obj("box", 0.5, 0.5, kind=CONTAINER), "apple-1": obj("apple", 0.5, 0.5)},
            gripper=Gripper(x=0.5, y=0.5, holding="box-0", closed=True),
            zone=None,
            inside={"apple-1": "box-0"},
            poured={("apple-1", "box-0"), ("box-0", "apple-1")},
            clock=12,
        )
        for world in (empty, zoned, full):
            assert digest(world) == plain_digest(world)
