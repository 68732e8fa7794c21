"""Output checks written from the program's documented behaviour, not from its code."""

from __future__ import annotations

from typing import Sequence


def mode_filter(frames: Sequence[str], w: int) -> list[str]:
    """Key sequence by the definition in the ``window_filter`` docstring.

    Windows of w+1 frames start at every i with i+w <= n-1 (one window of all
    frames when n <= w). A window's mode is its most frequent label, ties going
    to the label whose first occurrence in the window is latest. A mode is kept
    when it differs from the last kept one.
    """
    n = len(frames)
    starts = range(n - w) if n > w else range(1)
    keys: list[str] = []
    for i in starts:
        window = frames[i : i + w + 1]
        count: dict[str, int] = {}
        first: dict[str, int] = {}
        for j, label in enumerate(window):
            count[label] = count.get(label, 0) + 1
            first.setdefault(label, j)
        mode = max(count, key=lambda label: (count[label], first[label]))
        if not keys or keys[-1] != mode:
            keys.append(mode)
    return keys


def chain_violations(steps) -> list[str]:
    """Every step ok, and each step's post-digest is the next step's pre-digest."""
    out = [f"step {s.index} {s.outcome}: {s.reason}" for s in steps if s.outcome != "ok"]
    for a, b in zip(steps, steps[1:]):
        if a.post_digest != b.pre_digest:
            out.append(f"digest chain breaks between steps {a.index} and {b.index}")
    return out


def world_violations(initial, final, tol: float = 1e-9) -> list[str]:
    """The simulator invariants on a final world, against the world it started from.

    At most one held object, sitting at the gripper; acyclic containment
    between existing objects; every object inside the workspace; the same
    object ids as at the start.
    """
    out: list[str] = []
    objects = final.objects
    held = final.gripper.holding
    if held is not None:
        obj = objects.get(held)
        if obj is None:
            out.append(f"held object {held} does not exist")
        elif abs(obj.x - final.gripper.x) > tol or abs(obj.y - final.gripper.y) > tol:
            out.append(f"held object {held} is not at the gripper")
    for child, parent in final.inside.items():
        if child not in objects or parent not in objects:
            out.append(f"containment {child} in {parent} names a missing object")
            continue
        node, seen = child, set()
        while node in final.inside:
            if node in seen:
                out.append(f"containment cycle through {child}")
                break
            seen.add(node)
            node = final.inside[node]
    for oid, obj in objects.items():
        if not (0.0 <= obj.x <= final.width and 0.0 <= obj.y <= final.height):
            out.append(f"{oid} is outside the workspace")
    if set(objects) != set(initial.objects):
        out.append(f"object ids changed: {len(initial.objects)} -> {len(objects)}")
    return out
