import hashlib
import json
import random

import pytest

from demoplan import fixtures
from demoplan.actions import ActionPrimitive, KeySequence, keys_from_names
from demoplan.knowledge import CooccurrenceModel, build_model, load_corpus, load_lexicon
from demoplan.planner import (
    BindingError,
    BoundAction,
    BoundPlan,
    CONTRACTS,
    LOW_CONFIDENCE,
    NORMAL,
    action_json,
    bind_plan,
    dump_plan,
    load_plan,
    plan_text,
    validate_plan,
)
from demoplan.pose import ObjectPose, load_calibration, load_mask_file, sense_scene
from worldgen import ODD_NAMES, odd_number, step_doc

IDLE = ActionPrimitive.IDLE
MOVE = ActionPrimitive.MOVE
PICK = ActionPrimitive.PICK
PLACE = ActionPrimitive.PLACE
PUSH = ActionPrimitive.PUSH
TILT = ActionPrimitive.TILT
ROTATE = ActionPrimitive.ROTATE


@pytest.fixture(scope="module")
def model():
    return build_model(load_corpus(fixtures.corpus_path()), load_lexicon(fixtures.lexicon_path()))


@pytest.fixture(scope="module")
def cal():
    return load_calibration(fixtures.calibration_path())


def scene_poses(task, cal):
    return sense_scene(load_mask_file(fixtures.masks_path(task)), cal)


def pose(name, x=0.3, y=0.3):
    return ObjectPose(x=x, y=y, theta=0.0, class_name=name)


class TestArity:
    @pytest.mark.parametrize(
        "primitive,holding,expected",
        [
            (IDLE, False, 0),
            (MOVE, False, 0),
            (PICK, False, 1),
            (PLACE, False, 1),
            (ROTATE, False, 1),
            (PUSH, False, 2),
            (TILT, True, 1),
            (TILT, False, 2),
        ],
    )
    def test_object_counts(self, primitive, holding, expected):
        contract = CONTRACTS.get(primitive)  # idle and move have none
        assert (0 if contract is None else len(contract.bound(holding))) == expected


class TestBindPlan:
    def test_pick_place_binds_banana_into_box(self, model, cal):
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        plan = bind_plan(keys, scene_poses("pick_place", cal), model)
        assert [s.primitive for s in plan.steps] == list(keys)
        assert plan.steps[2].primary.class_name == "banana"
        assert plan.steps[4].target.class_name == "plastic-box"
        # approach waypoints: first move heads to the banana, second to the box
        assert plan.steps[1].target.class_name == "banana"
        assert plan.steps[3].target.class_name == "plastic-box"

    def test_single_idle_is_a_noop_plan(self, model):
        plan = bind_plan(keys_from_names(["idle"]), [pose("apple")], model)
        assert len(plan) == 1
        assert plan.steps[0] == BoundAction(IDLE)

    def test_push_binds_grape_toward_croissant(self, model, cal):
        keys = keys_from_names(["idle", "move", "push"])
        plan = bind_plan(keys, scene_poses("push_away", cal), model)
        push = plan.steps[2]
        assert push.primary.class_name == "grape"
        assert push.target.class_name == "croissant"
        assert plan.steps[1].target.class_name == "grape"

    def test_trailing_move_is_left_unbound_for_delivery(self, model, cal):
        keys = keys_from_names(["idle", "move", "pick", "move"])
        plan = bind_plan(keys, scene_poses("deliver", cal), model)
        assert plan.steps[3].primary is None and plan.steps[3].target is None

    def test_pour_excludes_held_bottle_from_targets(self, model, cal):
        keys = keys_from_names(["idle", "move", "pick", "move", "tilt"])
        plan = bind_plan(keys, scene_poses("pour", cal), model)
        assert plan.steps[2].primary.class_name == "blue-bottle"
        assert plan.steps[4].target.class_name == "paper-box"
        assert plan.steps[4].primary is None  # held object is implicit

    def test_rotate_binds_held_object(self, model):
        keys = keys_from_names(["pick", "rotate"])
        poses = [pose("blue-bottle"), pose("paper-box", x=0.6)]
        plan = bind_plan(keys, poses, model)
        assert plan.steps[1].primary.class_name == "blue-bottle"

    def test_each_pick_takes_a_fresh_object(self, model, cal):
        keys = keys_from_names(
            ["idle"] + ["move", "pick", "move", "place"] * 3 + ["move", "pick", "move"]
        )
        plan = bind_plan(keys, scene_poses("composite_1", cal), model)
        picked = [s.primary.class_name for s in plan.steps if s.primitive == PICK]
        assert sorted(picked) == ["apple", "corn", "plastic-box", "toy-train"]
        assert picked[-1] == "plastic-box"  # items first, then the box is handed over
        placed = {s.target.class_name for s in plan.steps if s.primitive == PLACE}
        assert placed == {"plastic-box"}

    def test_push_with_one_object_fails_with_step_index(self, model):
        keys = keys_from_names(["idle", "move", "push"])
        with pytest.raises(BindingError) as exc:
            bind_plan(keys, [pose("grape")], model)
        assert exc.value.step_index == 2

    def test_zero_evidence_steps_are_flagged(self, model):
        keys = keys_from_names(["pick"])
        plan = bind_plan(keys, [pose("cup")], model)  # no pick sentences mention cup
        assert plan.steps[0].confidence == LOW_CONFIDENCE

    def test_binding_preserves_key_order(self, model, cal):
        keys = keys_from_names(["idle", "move", "rotate", "pick", "move", "tilt", "pick", "move"])
        plan = bind_plan(keys, scene_poses("composite_2", cal), model)
        assert tuple(s.primitive for s in plan.steps) == keys.keys

    def test_bound_classes_come_from_the_scene(self, model, cal):
        for task in fixtures.TASKS:
            poses = scene_poses(task, cal)
            keys = keys_from_names(json.loads(fixtures.keys_path(task).read_text()))
            plan = bind_plan(keys, poses, model)
            scene_classes = {p.class_name for p in poses}
            for step in plan.steps:
                for bound in (step.primary, step.target):
                    if bound is not None:
                        assert bound.class_name in scene_classes

    def test_translated_scene_changes_poses_not_identities(self, model, cal):
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        poses = scene_poses("pick_place", cal)
        moved = [
            ObjectPose(p.x + 0.05, p.y - 0.02, p.theta, p.class_name, p.degenerate) for p in poses
        ]
        plan_a = bind_plan(keys, poses, model)
        plan_b = bind_plan(keys, moved, model)
        for a, b in zip(plan_a.steps, plan_b.steps):
            for pa, pb in zip((a.primary, a.target), (b.primary, b.target)):
                assert (pa is None) == (pb is None)
                if pa is not None:
                    assert pa.class_name == pb.class_name
                    assert pb.x == pytest.approx(pa.x + 0.05)


class TestValidatePlan:
    def test_valid_pick_place_plan(self, model, cal):
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        plan = bind_plan(keys, scene_poses("pick_place", cal), model)
        assert validate_plan(plan) == []

    def test_place_without_holding(self):
        plan = BoundPlan(
            steps=(BoundAction(PLACE, target=pose("bowl")),),
        )
        report = validate_plan(plan)
        assert any("place while not holding" in v for v in report)

    def test_pick_while_holding(self):
        plan = BoundPlan(
            steps=(
                BoundAction(PICK, primary=pose("apple")),
                BoundAction(PICK, primary=pose("banana")),
            ),
        )
        report = validate_plan(plan)
        assert any("pick while holding" in v for v in report)

    def test_place_target_must_be_container(self):
        plan = BoundPlan(
            steps=(
                BoundAction(PICK, primary=pose("apple")),
                BoundAction(PLACE, target=pose("banana")),
            ),
            containers=frozenset(),
        )
        report = validate_plan(plan)
        assert any("not a container" in v for v in report)
        # a plan whose containers are unknown, as a loaded one, skips the check
        assert validate_plan(BoundPlan(steps=plan.steps)) == []

    def test_tilt_after_tilt_release_is_consistent(self, model, cal):
        # pour then pick again: the validator must agree with execution order
        keys = keys_from_names(["idle", "move", "rotate", "pick", "move", "tilt", "pick", "move"])
        plan = bind_plan(keys, scene_poses("composite_2", cal), model)
        assert validate_plan(plan) == []

    def test_push_needs_both_slots(self):
        plan = BoundPlan(
            steps=(BoundAction(PUSH, primary=pose("grape")),),
        )
        assert any("two bound objects" in v for v in validate_plan(plan))

    def test_push_while_holding_is_flagged(self):
        plan = BoundPlan(
            steps=(
                BoundAction(PICK, primary=pose("apple")),
                BoundAction(PUSH, primary=pose("grape"), target=pose("pear", x=0.6)),
            ),
        )
        assert any("push while holding" in v for v in validate_plan(plan))


class TestUnfilledSlots:
    """The exact violations of each step that leaves a slot empty or fills the wrong one."""

    @pytest.mark.parametrize(
        "steps, expected",
        [
            ((BoundAction(IDLE, primary=pose("apple")),), ["step 0: idle must not carry poses"]),
            ((BoundAction(IDLE, target=pose("bowl")),), ["step 0: idle must not carry poses"]),
            ((BoundAction(MOVE, primary=pose("apple")),), ["step 0: move carries a pose in the wrong slot"]),
            ((BoundAction(PICK),), ["step 0: pick has no bound object"]),
            ((BoundAction(ROTATE),), ["step 0: rotate has no bound object"]),
            ((BoundAction(PICK, primary=pose("apple")), BoundAction(PLACE)), ["step 1: place has no bound target"]),
            ((BoundAction(PICK, primary=pose("apple")), BoundAction(TILT)), ["step 1: tilt has no bound target"]),
            ((BoundAction(PLACE),), ["step 0: place while not holding", "step 0: place has no bound target"]),
            ((BoundAction(PUSH, target=pose("pear")),), ["step 0: push needs two bound objects"]),
        ],
        ids=["idle_primary", "idle_target", "move_primary", "pick", "rotate", "place", "tilt", "place_empty", "push"],
    )
    def test_violations(self, steps, expected):
        assert validate_plan(BoundPlan(steps=steps)) == expected


class TestPlanIO:
    def test_round_trip(self, model, cal, tmp_path):
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        plan = bind_plan(keys, scene_poses("pick_place", cal), model)
        path = tmp_path / "plan.json"
        dump_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.steps == plan.steps

    def test_step_schema(self, model, cal, tmp_path):
        keys = keys_from_names(["idle", "move", "pick", "move", "place"])
        plan = bind_plan(keys, scene_poses("pick_place", cal), model)
        path = tmp_path / "plan.json"
        dump_plan(plan, path)
        doc = json.loads(path.read_text())
        assert isinstance(doc, list) and len(doc) == 5
        for step in doc:
            assert set(step) == {"primitive", "primary", "target", "confidence"}
        assert doc[0]["primitive"] == "idle"
        assert doc[0]["confidence"] == NORMAL
        assert set(doc[2]["primary"]) == {"x", "y", "theta", "class", "degenerate"}


class TestActionJson:
    """action_json and plan_text are spliced; they must be the text json.dumps writes for the steps with sorted keys."""

    @staticmethod
    def odd_step(rng):
        """A step whose poses and names take every spelling json has: NaN, the infinities, -0.0, ints, escapes."""

        def odd_pose():
            if rng.random() < 0.2:
                return None
            x, y, theta = (odd_number(rng) for _ in range(3))
            return ObjectPose(x, y, theta, rng.choice(ODD_NAMES), rng.random() < 0.5)

        confidence = rng.choice((NORMAL, LOW_CONFIDENCE) + ODD_NAMES)
        return BoundAction(rng.choice(list(ActionPrimitive)), odd_pose(), odd_pose(), confidence)

    def test_fuzzed_steps_against_json(self):
        rng = random.Random(16)
        for _ in range(3000):
            step = self.odd_step(rng)
            assert action_json(step) == json.dumps(step_doc(step), sort_keys=True)

    def test_fuzzed_plans_against_indented_json(self):
        rng = random.Random(17)
        for _ in range(1000):
            steps = tuple(self.odd_step(rng) for _ in range(rng.randint(0, 5)))
            want = json.dumps([step_doc(s) for s in steps], indent=2, sort_keys=True) + "\n"
            assert plan_text(BoundPlan(steps)) == want
        assert plan_text(BoundPlan(())) == "[]\n"


class TestBindingSignature:
    """Plans, binding errors and violations over seeded key sequences and scenes, pinned by one hash."""

    EXPECTED = "505325e96c3147188a5bda43377c6cb980acae3965192be0ec9b88a0df29a4b8"

    def test_plans_errors_and_violations_are_unchanged(self, model):
        rng = random.Random(11)
        classes = sorted(load_lexicon(fixtures.lexicon_path()).objects) + ["ghost"]
        primitives = list(ActionPrimitive)
        h = hashlib.sha256()
        for _ in range(500):
            names = [rng.choice(primitives)]
            while len(names) < rng.randint(1, 10):
                names.append(rng.choice([p for p in primitives if p != names[-1]]))
            keys = KeySequence(tuple(names))
            for _ in range(10):
                detected = rng.choices(classes, k=rng.randint(0, 5))
                poses = [pose(c, rng.uniform(0, 0.9), rng.uniform(0, 0.9)) for c in detected]
                try:
                    plan = bind_plan(keys, poses, model)
                except BindingError as exc:
                    h.update(f"{exc}\n".encode())
                    continue
                h.update(f"{json.dumps([step_doc(s) for s in plan.steps], sort_keys=True)}|{validate_plan(plan)}\n".encode())
        assert h.hexdigest() == self.EXPECTED


class TestBindingSignatureRandomCounts:
    """Plans, binding errors and violations over seeded random count tables, pinned by one hash.

    The tables hold zero counts, and the scenes repeat classes and use the
    class "", so every tie-break and low-confidence fallback is exercised.
    """

    EXPECTED = "5bb58cb0898c6876761f5cc049492c510d40d6feb4603cfff3aeba951ddc84a4"
    CONTAINERS = frozenset({"plate", "white plate", "bowl", "cup", "plastic-box", "paper-box"})  # the fixture lexicon's

    def test_plans_errors_and_violations_are_unchanged(self):
        rng = random.Random(5)
        classes = ["", "apple", "bowl", "cup", "grape", "plate", "plastic-box"]
        primitives = list(ActionPrimitive)
        h = hashlib.sha256()
        for _ in range(400):
            counts = {
                action: {c: rng.randint(0, 3) for c in rng.sample(classes, rng.randint(0, len(classes)))}
                for action in primitives
                if rng.random() < 0.8
            }
            model = CooccurrenceModel.from_counts(counts)
            model.containers = self.CONTAINERS
            for _ in range(5):
                names = [rng.choice(primitives)]
                while len(names) < rng.randint(1, 8):
                    names.append(rng.choice([p for p in primitives if p != names[-1]]))
                keys = KeySequence(tuple(names))
                for _ in range(5):
                    detected = rng.choices(classes, k=rng.randint(0, 6))
                    poses = [pose(c, rng.uniform(0, 0.9), rng.uniform(0, 0.9)) for c in detected]
                    try:
                        plan = bind_plan(keys, poses, model)
                    except BindingError as exc:
                        h.update(f"{exc.step_index}|{exc}\n".encode())
                        continue
                    h.update(f"{json.dumps([step_doc(s) for s in plan.steps], sort_keys=True)}|{validate_plan(plan)}\n".encode())
        assert h.hexdigest() == self.EXPECTED
