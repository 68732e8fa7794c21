import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from worldgen import ODD_NAMES, odd_number, random_action, random_world, step_doc

from demoplan import fixtures, sim
from demoplan.actions import ActionPrimitive, keys_from_names, synthesize_stream, window_filter
from demoplan.bench import BenchConfig, _load_inputs
from demoplan.knowledge import build_model, load_corpus, load_lexicon
from demoplan.planner import (
    CONTRACTS,
    LOW_CONFIDENCE,
    BindingError,
    BoundAction,
    BoundPlan,
    bind_plan,
    load_plan,
    validate_plan,
)
from demoplan.pose import ObjectPose, load_calibration, load_mask_file, sense_scene
from demoplan.sim import (
    CONTAINER,
    DeliveryZone,
    ExecutionTrace,
    Gripper,
    SimConfig,
    SimObject,
    TaskSpec,
    TraceStep,
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
ROOT = Path(__file__).resolve().parents[1]


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

    def test_equidistant_objects_tie_to_the_smaller_id(self):
        # inserted larger id first, at offsets of 1/64 m so both distances are exact and equal
        objects = {"apple-2": obj("apple", 0.5, 0.515625), "apple-1": obj("apple", 0.5, 0.484375)}
        for order in (objects, dict(reversed(objects.items()))):
            w = world_with(order, gripper=(0.5, 0.5))
            nxt, reason = apply_primitive(w, BoundAction(PICK, primary=ObjectPose(0.5, 0.5, 0, "apple")), CFG)
            assert reason is None and nxt.gripper.holding == "apple-1"


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
        assert w.gripper.holding is None
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

    APPLE_IN_BOWL = replace(
        world_with({"bowl-0": obj("bowl", 0.5, 0.5, kind=CONTAINER), "apple-1": obj("apple", 0.5, 0.5), "cup-2": obj("cup", 0.2, 0.5)}),
        inside={"apple-1": "bowl-0"},
    )

    def test_pushed_object_leaves_its_container(self):
        w = self.APPLE_IN_BOWL
        pushed, reason = apply_primitive(w, BoundAction(PUSH, primary=pose_at(w, "apple-1"), target=pose_at(w, "cup-2")), CFG)
        assert reason is None and dict(pushed.inside) == {}
        apple = pushed.objects["apple-1"]
        assert (apple.x, apple.y) != (0.5, 0.5)
        world = pushed
        for act in (
            BoundAction(MOVE, target=pose_at(w, "bowl-0")),
            BoundAction(PICK, primary=pose_at(w, "bowl-0")),
            BoundAction(MOVE, target=ObjectPose(0.7, 0.7, 0.0, "bowl")),
        ):
            world, reason = apply_primitive(world, act, CFG)
            assert reason is None
        assert (world.objects["bowl-0"].x, world.objects["bowl-0"].y) == (0.7, 0.7)
        assert world.objects["apple-1"] == apple
        assert check_invariants(world, w) == []

    def test_pushed_container_keeps_its_contents(self):
        w = self.APPLE_IN_BOWL
        pushed, reason = apply_primitive(w, BoundAction(PUSH, primary=pose_at(w, "bowl-0"), target=pose_at(w, "cup-2")), CFG)
        assert reason is None and dict(pushed.inside) == {"apple-1": "bowl-0"}
        assert check_invariants(pushed, w) == []


class TestGripperRefusals:
    """The simulator refuses a wrong gripper state from planner.CONTRACTS, in the validator's words."""

    EMPTY = world_with(
        {
            "apple-0": obj("apple", 0.2, 0.2),
            "banana-0": obj("banana", 0.3, 0.3),
            "box-0": obj("plastic-box", 0.6, 0.6, kind=CONTAINER),
        }
    )
    HOLDING = replace(EMPTY, gripper=Gripper(0.2, 0.2, "apple-0"))

    @pytest.mark.parametrize("primitive", [p for p, c in CONTRACTS.items() if c.needs is not None])
    def test_a_wrong_gripper_state_is_refused_as_the_validator_words_it(self, primitive):
        contract = CONTRACTS[primitive]
        poses = {"primary": pose_at(self.EMPTY, "banana-0"), "target": pose_at(self.EMPTY, "box-0")}
        step = BoundAction(primitive, **{slot: poses[slot] for slot in contract.slots})
        _, reason = apply_primitive(self.EMPTY if contract.needs else self.HOLDING, step, CFG)
        # the validator reaches the step with the same gripper state: empty, or holding after a pick
        before = () if contract.needs else (BoundAction(PICK, primary=pose_at(self.EMPTY, "apple-0")),)
        last = f"step {len(before)}: "
        [words] = [v.removeprefix(last) for v in validate_plan(BoundPlan((*before, step), frozenset({"plastic-box"}))) if v.startswith(last)]
        assert reason == words + (" apple-0" if contract.leaves else "")

    def test_a_place_with_no_target_from_an_empty_gripper_is_refused_for_the_gripper(self):
        _, reason = apply_primitive(self.EMPTY, BoundAction(PLACE), CFG)
        assert reason == "place while not holding"

    def test_a_push_with_an_empty_slot_while_holding_is_refused_for_the_slot(self):
        _, reason = apply_primitive(self.HOLDING, BoundAction(PUSH, primary=pose_at(self.EMPTY, "banana-0")), CFG)
        assert reason == "push needs two bound objects"

    NEAR = world_with(
        {
            "apple-0": obj("apple", 0.20, 0.20),
            "banana-0": obj("banana", 0.21, 0.20),
            "box-0": obj("plastic-box", 0.22, 0.20, kind=CONTAINER),
        },
        gripper=(0.20, 0.20),
    )

    @pytest.mark.parametrize("holding", [False, True], ids=["empty", "holding"])
    @pytest.mark.parametrize("primitive, slot", [(p, s) for p, c in CONTRACTS.items() for s in c.slots])
    def test_a_step_with_an_empty_slot_is_first_refused_as_the_simulator_refuses_it(self, primitive, slot, holding):
        """Everything is within reach, so the simulator refuses only for the gripper or the slot, or runs the step."""
        poses = {"primary": pose_at(self.NEAR, "banana-0"), "target": pose_at(self.NEAR, "box-0")}
        step = BoundAction(primitive, **{s: poses[s] for s in CONTRACTS[primitive].slots if s != slot})
        before = (BoundAction(PICK, primary=pose_at(self.NEAR, "apple-0")),) if holding else ()
        world = self.NEAR
        for act in before:
            world, reason = apply_primitive(world, act, CFG)
            assert reason is None
        _, reason = apply_primitive(world, step, CFG)
        last = f"step {len(before)}: "
        found = [v for v in validate_plan(BoundPlan((*before, step), frozenset({"plastic-box"}))) if v.startswith(last)]
        assert found[:1] == ([] if reason is None else [last + reason])


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

    @staticmethod
    def holds(w, spec, cfg=CFG):
        return check_success(ExecutionTrace(()), w, spec, cfg)

    @pytest.mark.parametrize("kind", ["pick-place", "push-away", "deliver"])
    def test_radius_plus_tolerance_is_the_boundary(self, kind):
        # 0.5 - edge and its difference from 0.5 are exact, so the distance is exactly radius + _SEP_TOL
        edge = 0.25 + sim._SEP_TOL
        spec = TaskSpec(kind, "apple", "bowl", containment_radius=0.25, separation=0.25)
        for x, expected in ((0.5 - edge, True), (math.nextafter(0.5 - edge, 0.0), False)):
            w = world_with(
                {"a-0": obj("apple", x, 0.5), "bowl-0": obj("bowl", 0.5, 0.5, kind=CONTAINER)},
                zone=DeliveryZone(0.5, 0.5, 0.25),
            )
            assert self.holds(w, spec) is expected, x

    def test_pick_place_radius_is_the_container_s_unless_given(self):
        w = world_with({"a-0": obj("apple", 0.45, 0.5), "bowl-0": obj("bowl", 0.5, 0.5, kind=CONTAINER, radius=0.06)})
        assert self.holds(w, TaskSpec("pick-place", "apple", "bowl"))
        assert not self.holds(w, TaskSpec("pick-place", "apple", "bowl", containment_radius=0.04))
        w = world_with({"a-0": obj("apple", 0.4, 0.5), "bowl-0": obj("bowl", 0.5, 0.5, kind=CONTAINER, radius=0.06)})
        assert not self.holds(w, TaskSpec("pick-place", "apple", "bowl"))
        assert self.holds(w, TaskSpec("pick-place", "apple", "bowl", containment_radius=0.11))

    def test_push_away_separation_defaults_to_the_contact_distance(self):
        w = world_with({"g-0": obj("grape", 0.45, 0.5), "c-0": obj("croissant", 0.5, 0.5)})
        spec = TaskSpec("push-away", "grape", "croissant")
        assert not self.holds(w, spec, SimConfig(contact=0.04))
        assert self.holds(w, spec, SimConfig(contact=0.06))
        assert self.holds(w, replace(spec, separation=0.06), SimConfig(contact=0.04))
        assert not self.holds(w, replace(spec, separation=0.04), SimConfig(contact=0.06))

    def test_composite_push_away_part_without_separation_uses_the_contact_distance(self):
        w = world_with({"g-0": obj("grape", 0.45, 0.5), "c-0": obj("croissant", 0.5, 0.5)})
        spec = TaskSpec("composite", parts=(TaskSpec("push-away", "grape", "croissant"),))
        assert not self.holds(w, spec, SimConfig(contact=0.04))
        assert self.holds(w, spec, SimConfig(contact=0.06))

    def test_same_class_push_away_skips_the_object_itself(self):
        alone = world_with({"b-0": obj("bowl", 0.5, 0.5, kind=CONTAINER)})
        assert not self.holds(alone, TaskSpec("push-away", "bowl", "bowl", separation=0.04))
        pair = world_with({"b-0": obj("bowl", 0.5, 0.5, kind=CONTAINER), "b-1": obj("bowl", 0.53, 0.5, kind=CONTAINER)})
        assert self.holds(pair, TaskSpec("push-away", "bowl", "bowl", separation=0.04))

    def test_same_class_pick_place_counts_the_object_itself(self):
        alone = world_with({"b-0": obj("bowl", 0.5, 0.5, kind=CONTAINER)})
        assert self.holds(alone, TaskSpec("pick-place", "bowl", "bowl"))

    def test_pour_skips_a_pair_whose_object_is_missing(self):
        objects = {"b-0": obj("black-bottle", 0.5, 0.5, kind="bottle"), "cup-0": obj("cup", 0.55, 0.5, kind=CONTAINER)}
        spec = TaskSpec("pour", "black-bottle", "cup")
        assert not self.holds(replace(world_with(objects), poured={("ghost", "cup-0")}), spec)
        assert not self.holds(replace(world_with(objects), poured={("b-0", "ghost")}), spec)
        assert self.holds(replace(world_with(objects), poured={("ghost", "cup-0"), ("b-0", "cup-0")}), spec)

    def test_deliver_without_a_zone_fails(self):
        w = world_with({"a-0": obj("apple", 0.5, 0.5)})
        assert not self.holds(w, TaskSpec("deliver", "apple"))
        assert self.holds(replace(w, zone=DeliveryZone(0.5, 0.5, 0.05)), TaskSpec("deliver", "apple"))


class Unread:
    """A task field value that raises when it is compared, added, hashed, iterated or tested for truth."""

    def _read(self, *args):
        raise AssertionError("a predicate read a task field its _SUCCESS entry does not name")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = _read
    __add__ = __radd__ = __sub__ = __rsub__ = __iter__ = __bool__ = __float__ = _read


class TestSuccessTable:
    """Each kind's predicate reads only the task fields its _SUCCESS entry names."""

    CLASSES = {"object_class": "apple", "target_class": "bowl"}

    def spec(self, kind, bound_given):
        """A spec of the kind whose entry's fields hold values and whose every other field is an Unread.

        An ungiven bound is None; a composite's parts are one spec of each other kind.
        """
        _, names, bound = sim._SUCCESS[kind]
        values = {f.name: Unread() for f in fields(TaskSpec) if f.name != "kind"}
        for k in names:
            if k == "parts":
                values[k] = tuple(self.spec(part, bound_given) for part in sorted(sim._SUCCESS) if part != kind)
            else:
                values[k] = self.CLASSES[k]
        if bound is not None:
            values[bound] = 0.05 if bound_given else None
        return TaskSpec(kind, **values)

    @pytest.mark.parametrize("bound_given", [True, False], ids=["bound", "no_bound"])
    @pytest.mark.parametrize("kind", sorted(sim._SUCCESS))
    def test_a_predicate_reads_only_its_entry_s_fields(self, kind, bound_given):
        apple = replace(obj("apple", 0.5, 0.5), opened=True)
        objects = {"a-0": apple, "bowl-0": obj("bowl", 0.52, 0.5, kind=CONTAINER)}
        w = world_with(objects, zone=DeliveryZone(0.5, 0.5, 0.1))
        w = replace(w, poured={("a-0", "bowl-0")})
        # every kind holds in this world, so a composite scores each of its parts
        assert check_success(ExecutionTrace(()), w, self.spec(kind, bound_given), CFG)


class TestSimConfig:
    @pytest.mark.parametrize(
        "thresholds", [{"contact": 0}, {"reach": math.nan}, {"reach": -1.0}, {"open_turn_angle": math.inf}]
    )
    def test_a_threshold_that_is_not_finite_and_positive_is_refused(self, thresholds):
        with pytest.raises(ValueError, match=f"threshold {next(iter(thresholds))}"):
            SimConfig(**thresholds)

    def test_thresholds_are_stored_as_floats(self):
        cfg = SimConfig(reach=1, contact=2)
        assert (cfg.reach, cfg.contact) == (1.0, 2.0) and type(cfg.reach) is float


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

    def test_a_successor_copies_what_it_is_given_and_hands_on_read_only_views(self):
        w = world_with({"apple-0": obj("apple", 0.1, 0.2), "box-1": obj("box", 0.5, 0.5, kind=CONTAINER)})
        objects = {**w.objects, "apple-0": obj("apple", 0.3, 0.4)}
        inside, poured = {"apple-0": "box-1"}, {("apple-0", "box-1")}
        nxt = w.successor(objects=objects, inside=inside, poured=poured)
        before = digest(nxt)
        objects["apple-0"] = obj("apple", 0.6, 0.6)
        objects["grape-2"] = obj("grape", 0.5, 0.5)
        inside.clear()
        poured.add(("box-1", "apple-0"))
        assert dict(nxt.objects) == {"apple-0": obj("apple", 0.3, 0.4), "box-1": obj("box", 0.5, 0.5, kind=CONTAINER)}
        assert dict(nxt.inside) == {"apple-0": "box-1"} and nxt.poured == {("apple-0", "box-1")}
        assert digest(nxt) == before == plain_digest(nxt)
        later = nxt.successor(clock=1)
        assert later.objects is nxt.objects and later.inside is nxt.inside and later.poured is nxt.poured
        for mapping in (later.objects, later.inside):
            with pytest.raises(TypeError):
                mapping["apple-0"] = mapping["apple-0"]
            with pytest.raises(TypeError):
                del mapping["apple-0"]
        assert digest(later) == plain_digest(later)


class TestTupleRecords:
    """Gripper and TraceStep are named tuples: read by field, never assigned."""

    def test_a_gripper_defaults_to_empty_and_open(self):
        g = Gripper(x=0.1, y=0.2)
        assert (g.x, g.y, g.holding) == (0.1, 0.2, None)
        assert g == Gripper(0.1, 0.2, None) != Gripper(0.1, 0.2, "apple-0")

    def test_a_trace_step_with_and_without_a_reason(self):
        act = BoundAction(IDLE)
        ok = TraceStep(0, act, "a", "b")
        failed = TraceStep(index=1, action=act, pre_digest="b", post_digest="b", reason="why")
        assert ok.reason is None and (failed.index, failed.reason) == (1, "why")
        assert (ok.outcome, failed.outcome) == ("ok", "failed")
        trace = ExecutionTrace((ok, failed))
        assert not trace.all_ok and trace.failure is failed
        assert trace_to_jsonl(trace) == plain_trace(trace)

    def test_a_field_cannot_be_assigned(self):
        g, step = Gripper(0.1, 0.2), TraceStep(0, BoundAction(IDLE), "a", "b")
        for record, name in ((g, "x"), (g, "holding"), (step, "reason"), (step, "outcome")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


class TestCheckInvariants:
    def test_each_broken_invariant_is_named(self):
        start = world_with(
            {"box-0": obj("box", 0.5, 0.5, kind=CONTAINER), "bowl-1": obj("bowl", 0.2, 0.2, kind=CONTAINER)}
        )
        broken = replace(
            start,
            objects={**start.objects, "box-0": obj("box", 1.5, 0.5, kind=CONTAINER), "ghost-2": obj("ghost", 0.1, 0.1)},
            gripper=Gripper(x=0.3, y=0.3, holding="bowl-1"),
            inside={"box-0": "bowl-1", "bowl-1": "box-0", "apple-3": "box-0"},
        )
        assert check_invariants(broken, start) == [
            "held object bowl-1 is not at the gripper",
            "apple-3 inside box-0 names a missing object",
            "bowl-1 inside box-0 lies away from it",
            "containment cycle through bowl-1",
            "box-0 inside bowl-1 lies away from it",
            "containment cycle through box-0",
            "box-0 lies outside the workspace",
            "object ids changed: 2 -> 3",
        ]
        missing = replace(start, gripper=Gripper(x=0.3, y=0.3, holding="cup-9"))
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

    def test_every_state_of_the_noisy_bench_trials(self):
        cfg = BenchConfig(trials=100, noise_rate=0.30, seed=5)
        model, tasks = _load_inputs(cfg)
        states = 0
        for task_index, (golden, poses, (start, _, sim_cfg)) in enumerate(tasks.values()):
            for trial in range(cfg.trials):
                stream = synthesize_stream(golden, cfg.frames_per_key, cfg.noise_rate, cfg.seed + task_index * cfg.trials + trial)
                try:
                    plan = bind_plan(window_filter(stream, cfg.window_width), poses, model)
                except BindingError:
                    continue
                if validate_plan(plan):
                    continue
                trace, _ = run_plan(start, plan, sim_cfg)
                world = start
                for step in trace.steps:
                    world, _ = apply_primitive(world, step.action, sim_cfg)
                    assert digest(world) == step.post_digest
                    assert check_invariants(world, start) == []
                    states += 1
        assert states > 0

    def test_every_state_of_the_long_horizon_plans(self, monkeypatch, tmp_path):
        """The four long_horizon plans at seeds 0 and 11, drawn as perfbench/workloads.py::LongHorizon draws them."""
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench import inputs, workloads

        long, per_key = workloads.LongHorizon, workloads.FRAMES_PER_KEY
        states = 0
        for seed in (0, 11):
            for d in range(long.DEMOS):
                rng = random.Random(f"{seed}/long/{d}")
                inputs.noisy_frames(inputs.random_keys(long.FRAMES // per_key, rng), per_key, workloads.NOISE, rng)  # drawn first
                scenario, steps = inputs.long_plan(long.OBJECTS, long.STEPS, rng)
                inputs.write_json(tmp_path / "scenario.json", scenario)
                inputs.write_json(tmp_path / "plan.json", steps)
                start, _, cfg = load_scenario(tmp_path / "scenario.json")
                world = start
                for i, step in enumerate(load_plan(tmp_path / "plan.json").steps):
                    world, reason = apply_primitive(world, step, cfg)
                    assert reason is None, (seed, d, i, reason)
                    assert check_invariants(world, start) == [], (seed, d, i)
                    states += 1
        assert states == 2 * long.DEMOS * long.STEPS


class TestReasonSignature:
    """Every reason string and resulting world of a seeded fuzz, pinned by one hash."""

    CONFIGS = (CFG, SimConfig(reach=0.5, contact=0.1, cap_turn_angle=math.pi, open_turn_angle=2.5 * math.pi))
    EXPECTED = "e801bec0e417cb61df2a33626d76520762b38794a058af7e211a65148a46f39f"

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
        "gripper": [world.gripper.x, world.gripper.y, world.gripper.holding, world.gripper.holding is not None],
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
            gripper=Gripper(x=0.5, y=0.5, holding="box-0"),
            zone=None,
            inside={"apple-1": "box-0"},
            poured={("apple-1", "box-0"), ("box-0", "apple-1")},
            clock=12,
        )
        for world in (empty, zoned, full):
            assert digest(world) == plain_digest(world)


class TestHeadEncoding:
    """The digest head is spliced; it must be the text json.dumps writes for it."""

    def test_fuzzed_heads_against_json(self):
        rng = random.Random(16)
        for _ in range(3000):
            holding = rng.choice((None,) + ODD_NAMES)
            g = Gripper(odd_number(rng), odd_number(rng), holding)
            clock = rng.choice((0, 1, 599, 10**20))
            assert sim._head(clock, g) == json.dumps({"clock": clock, "gripper": [g.x, g.y, holding, holding is not None]})

    def test_odd_grippers_digest_as_the_plain_encoding(self):
        for x in (-0.0, 1e-300, 1e16, 3, math.nan, math.inf, -math.inf):
            for holding in (None, 'a"b\\c', "箱-1"):
                world = world_with({'a"b\\c': obj("apple", 0.1, 0.2)})
                world = replace(world, gripper=Gripper(x, 0.5, holding), clock=7)
                assert digest(world) == plain_digest(world)


class TestFragmentEncoding:
    """An object's entry, inside and poured are spliced; each must be the text json.dumps writes for it."""

    NUMBERS = (-0.0, 1e16, 3, 0.25, math.nan, math.inf, -math.inf)

    def test_entries_against_json(self):
        names = ('a"b\\c', "äpfel", "箱-1")
        for i, number in enumerate(self.NUMBERS):
            for field in ("x", "y", "theta", "radius", "turned"):
                for opened in (False, True, 1, None):
                    o = replace(obj(names[i % 3], 0.5, 0.5), **{field: number}, kind=names[i % 2], opened=opened)
                    values = [o.class_name, o.x, o.y, o.theta, o.radius, o.kind, o.turned, o.opened]
                    assert o._entry == json.dumps(values)

    def test_inside_and_poured_against_json(self):
        for ids in (("apple-0", "box-1"), ('a"b\\c', "箱-1"), ("äpfel-0", "tab\there")):
            a, b = ids
            world = replace(world_with({}), inside={b: a, a: b}, poured={(a, b), (b, a), (a, a)})
            assert world._inside == json.dumps(dict(sorted(world.inside.items())))
            assert world._poured == json.dumps(sorted(world.poured))
        empty = world_with({})
        assert (empty._inside, empty._poured) == ("{}", "[]")

    def test_odd_objects_digest_as_the_plain_encoding(self):
        for number in self.NUMBERS:
            odd = replace(obj("箱", number, 0.2), turned=number)
            world = world_with({'a"b\\c': odd, "äpfel-0": obj("äpfel", 0.3, 0.4)})
            world = replace(world, inside={'a"b\\c': "äpfel-0"}, poured={("äpfel-0", 'a"b\\c')})
            assert digest(world) == plain_digest(world)


class TestIdOrder:
    """A state hands its sorted id order on to a successor whose objects have the same ids."""

    def test_a_step_that_moves_an_object_hands_the_order_on(self):
        world = world_with({"box-1": obj("box", 0.5, 0.5, kind=CONTAINER), "apple-0": obj("apple", 0.05, 0.05)})
        digest(world)
        held, reason = apply_primitive(world, BoundAction(PICK, primary=pose_at(world, "apple-0")), CFG)
        assert reason is None
        moved, reason = apply_primitive(held, BoundAction(MOVE, target=ObjectPose(0.3, 0.3, 0.0, "box")), CFG)
        assert reason is None and moved.objects["apple-0"] != world.objects["apple-0"]
        assert moved._order is world._order
        assert digest(moved) == plain_digest(moved)

    def test_other_ids_rebuild_the_order(self):
        world = world_with({"box-1": obj("box", 0.5, 0.5, kind=CONTAINER), "apple-0": obj("apple", 0.1, 0.1)})
        digest(world)
        same = world.successor(objects={**world.objects, "apple-0": obj("apple", 0.2, 0.2)})
        assert same._order is world._order and digest(same) == plain_digest(same)
        for objects in ({**world.objects, "grape-2": obj("grape", 0.3, 0.3)}, {"apple-0": obj("apple", 0.1, 0.1)}):
            other = world.successor(objects=objects)
            assert other._order is not world._order
            assert [oid for oid, _ in other._order] == sorted(objects)
            assert digest(other) == plain_digest(other)


def plain_trace(trace):
    """The trace as json.dumps writes each step's whole line in one go."""
    return "".join(
        json.dumps(
            {
                "step": s.index,
                "action": step_doc(s.action),
                "pre": s.pre_digest,
                "post": s.post_digest,
                "outcome": "ok" if s.reason is None else "failed",
                "reason": s.reason,
            },
            sort_keys=True,
        )
        + "\n"
        for s in trace.steps
    )


class TestTraceEncoding:
    """trace_to_jsonl splices each line from encoded parts; it must write the plain encoding's text."""

    def test_fuzzed_traces_with_quotes_non_ascii_and_low_confidence(self):
        odd = world_with({'a"b\\c': obj('cl"ass', 0.1, 0.2), "箱-1": obj("箱", 0.5, 0.6, kind=CONTAINER)})
        rng = random.Random(3)
        steps, world = [], odd
        for i in range(600):
            if i % 30 == 0:
                world = odd if i % 60 == 0 else random_world(rng)
            act = random_action(rng, world)
            if rng.random() < 0.3:
                act = replace(act, confidence=LOW_CONFIDENCE)
            nxt, reason = apply_primitive(world, act, CFG)
            steps.append(TraceStep(i, act, digest(world), digest(nxt), reason))
            world = nxt
        trace = ExecutionTrace(tuple(steps))
        assert trace_to_jsonl(trace).splitlines() == plain_trace(trace).splitlines()
        assert trace_to_jsonl(trace) == plain_trace(trace)
        reasons = [s.reason for s in steps]
        assert None in reasons and any('a"b\\c' in r for r in reasons if r) and any("箱-1" in r for r in reasons if r)
        assert trace_to_jsonl(ExecutionTrace(())) == ""


def crowded_world(rng):
    """24 objects, a third of them containers, in a 0.9 m square with a delivery zone."""
    objects = {}
    for i in range(24):
        cls, kind = ("box", CONTAINER) if i % 3 == 0 else rng.choice([("apple", "item"), ("bottle", "bottle")])
        objects[f"{cls}-{i}"] = obj(cls, rng.uniform(0.05, 0.85), rng.uniform(0.05, 0.85), kind=kind)
    return world_with(objects, zone=DeliveryZone(0.8, 0.8, 0.08))


def aimed_action(rng, world):
    """A step aimed at real objects: its primary is a random object, its target a random container."""
    objects = sorted(world.objects)
    primary, target = (pose_at(world, rng.choice(objects)) for _ in range(2))
    containers = [oid for oid in objects if world.objects[oid].kind == CONTAINER]
    if rng.random() < 0.9:
        target = pose_at(world, rng.choice(containers))
    p = rng.choice([PICK, PICK, PICK, PLACE, PLACE, TILT, TILT, MOVE, PUSH, ROTATE, IDLE])
    if p in (PLACE, TILT):
        return BoundAction(p, target=target)
    if p == MOVE:
        dest = ObjectPose(x=rng.uniform(0.0, 0.9), y=rng.uniform(0.0, 0.9), theta=0.0, class_name="spot")
        return BoundAction(p, primary=None if rng.random() < 0.2 else dest)
    return BoundAction(p, primary=primary, target=target)


class TestFragmentHandoff:
    """apply_primitive hands each digest fragment whose fields a step left as they were to the next state."""

    FRAGMENTS = ("_objects", "_inside", "_poured", "_frame")

    def test_fuzzed_chains_of_24_objects(self):
        rng = random.Random(11)
        cfg = SimConfig(reach=2.0)  # everything is in reach, so most picks, places and tilts succeed
        changed, handed = Counter(), Counter()
        for _ in range(10):
            world = crowded_world(rng)
            digest(world)
            for _ in range(200):
                nxt, reason = apply_primitive(world, aimed_action(rng, world), cfg)
                if nxt.objects is world.objects:
                    assert vars(nxt)["_objects"] is vars(world)["_objects"]
                if reason is None:
                    changed.update(f for f in ("objects", "inside", "poured") if getattr(nxt, f) != getattr(world, f))
                    handed.update(name for name in self.FRAGMENTS if name in vars(nxt))
                    world = nxt
                assert digest(world) == plain_digest(world) == digest(replace(world))
        assert all(changed[f] > 100 for f in ("objects", "inside", "poured")), changed
        assert all(handed[name] > 100 for name in self.FRAGMENTS), handed

    def test_an_equal_object_that_encodes_differently_is_encoded_anew(self):
        apple = obj("apple", 0.0, 0.5)
        world = replace(world_with({"apple-0": apple}), gripper=Gripper(x=0.0, y=0.5, holding="apple-0"))
        digest(world)
        to = ObjectPose(x=-0.0, y=0.5, theta=0.0, class_name="apple")
        nxt, reason = apply_primitive(world, BoundAction(MOVE, primary=to), CFG)
        assert reason is None
        assert nxt.objects == world.objects and nxt.objects["apple-0"] is not apple
        assert digest(nxt) == plain_digest(nxt)
        assert '"apple-0": ["apple", -0.0' in nxt._objects

    def test_each_frame_field_is_encoded_anew_when_replaced(self):
        world = replace(world_with({}), width=1, height=1)
        digest(world)
        zone = DeliveryZone(0.5, 0.5, 0.1)
        for change in ({"width": 1.0}, {"height": 1.0}, {"zone": zone}, {"zone": None}, {"clock": 3}):
            nxt = world.successor(**change)
            assert digest(nxt) == plain_digest(nxt) == digest(replace(nxt))
        assert digest(world.successor(width=1.0)) != digest(world)  # 1 == 1.0, but the two encode differently

    def test_a_pick_from_nowhere_hands_on_the_inside_mapping(self):
        objects = {"apple-0": obj("apple", 0.05, 0.05), "box-1": obj("box", 0.5, 0.5, kind=CONTAINER)}
        world = replace(world_with({**objects, "apple-2": obj("apple", 0.5, 0.5)}), inside={"apple-2": "box-1"})
        digest(world)
        nxt, reason = apply_primitive(world, BoundAction(PICK, primary=pose_at(world, "apple-0")), CFG)
        assert reason is None and nxt._inside is world._inside

    def test_a_place_where_the_held_object_already_is_hands_on_the_objects(self):
        objects = {"apple-0": obj("apple", 0.1, 0.1), "box-1": obj("box", 0.5, 0.5, kind=CONTAINER)}
        world = replace(world_with(objects), gripper=Gripper(x=0.1, y=0.1, holding="apple-0"))
        world, reason = apply_primitive(world, BoundAction(MOVE, primary=pose_at(world, "box-1")), CFG)
        assert reason is None and world.objects["apple-0"] != objects["apple-0"]
        digest(world)
        nxt, reason = apply_primitive(world, BoundAction(PLACE, target=pose_at(world, "box-1")), CFG)
        assert reason is None and dict(nxt.inside) == {"apple-0": "box-1"}
        assert nxt.objects is world.objects and vars(nxt)["_objects"] is vars(world)["_objects"]
        assert digest(nxt) == plain_digest(nxt)

    def test_an_unmoved_group_that_would_encode_differently_is_rebuilt(self):
        box, apple = obj("box", 0.5, 0.5, kind=CONTAINER), obj("apple", -0.0, 0.5)
        world = WorldState(
            width=0.9,
            height=0.9,
            objects={"box-0": box, "apple-1": apple},
            gripper=Gripper(x=0.5, y=0.5, holding="box-0"),
            inside={"apple-1": "box-0"},
        )
        digest(world)
        # the box stays bit for bit, but -0.0 + 0.0 is 0.0
        nxt, reason = apply_primitive(world, BoundAction(MOVE, primary=pose_at(world, "box-0")), CFG)
        assert reason is None and nxt.objects is not world.objects
        assert digest(nxt) == plain_digest(nxt) and '"apple-1": ["apple", 0.0,' in nxt._objects
        # the apple stays at 0.0 == 0, but an int destination encodes differently
        apple = obj("apple", 0.0, 0.5)
        held = replace(world, objects={"apple-1": apple}, gripper=Gripper(0.0, 0.5, "apple-1"), inside={})
        digest(held)
        to = ObjectPose(x=0, y=0.5, theta=0.0, class_name="spot")
        nxt, reason = apply_primitive(held, BoundAction(MOVE, primary=to), CFG)
        assert reason is None and nxt.objects is not held.objects
        assert digest(nxt) == plain_digest(nxt) and '"apple-1": ["apple", 0, 0.5,' in nxt._objects

    @staticmethod
    def assert_own_dict(parent, nxt, changes):
        """nxt's instance dict is new: parent's fields and still-valid fragments with the changes in place, no _digest."""
        old, new = vars(parent), vars(nxt)
        assert new is not old and new is not changes
        assert "_digest" in old and "_digest" not in new
        changed = {f for f, value in changes.items() if value is not old[f]}
        stale = {sim._FRAGMENT[f] for f in changed if f in sim._FRAGMENT}
        if "objects" in changed and nxt.objects.keys() != parent.objects.keys():
            stale.add("_order")
        assert set(new) == set(old) - stale - {"_digest"}
        for name, value in new.items():
            assert value == changes[name] if name in changed else value is old[name], name
        assert digest(nxt) == plain_digest(nxt)
        return changed

    def test_a_successor_takes_a_new_dict_of_the_parents_fields_and_fragments(self, monkeypatch):
        given = []

        def recorded(step):
            def wrapped(world, act, cfg):
                given.append(step(world, act, cfg))
                return given[-1]

            return wrapped

        for p, step in list(sim._STEP.items()):
            monkeypatch.setitem(sim._STEP, p, recorded(step))
        rng = random.Random(5)
        cfg = SimConfig(reach=2.0)
        seen = Counter()
        for _ in range(4):
            world = crowded_world(rng)
            for _ in range(100):
                digest(world)  # the parent holds _digest and every fragment
                nxt, reason = apply_primitive(world, aimed_action(rng, world), cfg)
                if reason is None:
                    seen.update(self.assert_own_dict(world, nxt, {**given[-1], "clock": world.clock + 1}))
                    world = nxt
        assert all(seen[f] > 20 for f in ("objects", "inside", "poured", "gripper", "clock")), seen
        world = crowded_world(rng)
        more = {**world.objects, "apple-99": obj("apple", 0.4, 0.4)}
        for changes in (
            {"clock": 1},
            {"objects": more},
            {"objects": world.objects, "gripper": Gripper(0.2, 0.2)},
            {"inside": {"box-3": "box-0"}, "poured": {("box-3", "box-0")}},
            {"width": 1.0, "zone": None},
        ):
            digest(world)
            self.assert_own_dict(world, world.successor(**changes), changes)
