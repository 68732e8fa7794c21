"""Imitation-from-observation at desk scale.

Pipeline: filter a noisy per-frame action-primitive stream into a key
action sequence, estimate planar object poses from instance masks, bind
each action to concrete objects using verb-object co-occurrence statistics,
and execute the bound plan in a deterministic tabletop simulator.
"""

__version__ = "0.1.0"

from .actions import (
    ActionPrimitive,
    KeySequence,
    PrimitiveStream,
    synthesize_stream,
    window_filter,
    window_mode,
)
from .knowledge import (
    CooccurrenceModel,
    Lexicon,
    build_model,
    conditional_probability,
    parse_sentence,
    rank_candidates,
    select_single_object,
)
from .planner import BoundAction, BoundPlan, bind_plan, validate_plan
from .pose import (
    Calibration,
    Mask,
    ObjectPose,
    centroid,
    estimate_pose,
    principal_angle,
    sense_scene,
    to_world,
)
from .sim import (
    ExecutionTrace,
    SimConfig,
    TaskSpec,
    WorldState,
    apply_primitive,
    check_success,
    load_scenario,
    run_plan,
)

__all__ = [
    "ActionPrimitive",
    "BoundAction",
    "BoundPlan",
    "Calibration",
    "CooccurrenceModel",
    "ExecutionTrace",
    "KeySequence",
    "Lexicon",
    "Mask",
    "ObjectPose",
    "PrimitiveStream",
    "SimConfig",
    "TaskSpec",
    "WorldState",
    "apply_primitive",
    "bind_plan",
    "build_model",
    "centroid",
    "check_success",
    "conditional_probability",
    "estimate_pose",
    "load_scenario",
    "parse_sentence",
    "principal_angle",
    "rank_candidates",
    "run_plan",
    "select_single_object",
    "sense_scene",
    "synthesize_stream",
    "to_world",
    "validate_plan",
    "window_filter",
    "window_mode",
]
