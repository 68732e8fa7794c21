"""Planar object pose from instance masks.

An object detection stage upstream yields, per object, a class label and the
set of pixels covering it. Pose here is (x, y, theta, c): the mask centroid,
the orientation of the principal axis relative to the horizontal image axis,
and the class label. Theta is an axis, not a direction, so it lives in
[0, pi). Masks whose pixel covariance is close to isotropic (squares, round
fruit) have no meaningful axis and are flagged degenerate with theta = 0.

A fixed overhead camera reduces calibration to a scale and an offset, which
is what to_world applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from operator import mul
from pathlib import Path

from .jsondoc import array, load_json, positive, record, text, vector

# Eigenvalue ratio below which a mask is treated as isotropic.
ISO_EPS = 0.05


@dataclass(frozen=True)
class Mask:
    """Pixel set covering one detected object instance."""

    class_name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("mask must contain at least one point")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class DetectedScene:
    """The instance masks of one camera frame; each mask carries its class."""

    masks: tuple[Mask, ...]


@dataclass(frozen=True)
class ObjectPose:
    """Centroid, principal-axis angle in [0, pi), and class label."""

    x: float
    y: float
    theta: float
    class_name: str
    degenerate: bool = False


@dataclass(frozen=True)
class Calibration:
    """Pixel-to-world mapping for a fixed overhead camera: scale plus offset."""

    scale: float  # meters per pixel
    origin: tuple[float, float] = (0.0, 0.0)
    image_size: tuple[float, float] = (600, 600)

    def __post_init__(self) -> None:
        if not (0.0 < self.scale < math.inf and all(map(math.isfinite, self.origin))):
            raise ValueError("calibration needs a finite positive scale and a finite origin")


IDENTITY_CALIBRATION = Calibration(scale=1.0, origin=(0.0, 0.0))


def centroid(mask: Mask) -> tuple[float, float]:
    """Arithmetic mean of the mask's pixel coordinates; exact sums for integer pixels."""
    xs, ys = zip(*mask.points)
    n = len(xs)
    return sum(xs) / n, sum(ys) / n


def principal_angle(mask: Mask) -> tuple[float, bool]:
    """Orientation of the direction of largest variance, in [0, pi).

    theta = 0.5 * atan2(2*c_xy, c_xx - c_yy) over the population covariance,
    centred before summing so that far-off clouds do not cancel. Returns
    (0.0, True) for fewer than two points or an eigenvalue ratio below 1 + ISO_EPS.
    """
    n = len(mask.points)
    if n < 2:
        return 0.0, True
    mx, my = centroid(mask)
    dx = [x - mx for x, _ in mask.points]
    dy = [y - my for _, y in mask.points]
    cxx = math.fsum(map(mul, dx, dx)) / n
    cyy = math.fsum(map(mul, dy, dy)) / n
    cxy = math.fsum(map(mul, dx, dy)) / n
    half_trace = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.25 * (cxx - cyy) ** 2 + cxy * cxy, 0.0))
    lam_max, lam_min = half_trace + disc, half_trace - disc
    if lam_max <= 0.0 or lam_max < (1.0 + ISO_EPS) * lam_min:
        return 0.0, True
    theta = 0.5 * math.atan2(2.0 * cxy, cxx - cyy)
    theta %= math.pi
    if theta >= math.pi:  # guard against rounding at the seam
        theta -= math.pi
    return theta, False


def estimate_pose(mask: Mask) -> ObjectPose:
    """Combine centroid, principal axis, and class label into one pose.

    A pixel coordinate, sum or centred coordinate too large for a float is a
    ValueError naming the mask's class.
    """
    try:
        x, y = centroid(mask)
        theta, degenerate = principal_angle(mask)
    except OverflowError:
        raise ValueError(f"mask of class {mask.class_name!r} has pixel coordinates too large for a float") from None
    return ObjectPose(x=x, y=y, theta=theta, class_name=mask.class_name, degenerate=degenerate)


def to_world(pose: ObjectPose, cal: Calibration) -> ObjectPose:
    """Map a pixel-space pose into world coordinates; angle and label pass through."""
    return replace(
        pose,
        x=cal.origin[0] + cal.scale * pose.x,
        y=cal.origin[1] + cal.scale * pose.y,
    )


def sense_scene(scene: DetectedScene, cal: Calibration) -> tuple[ObjectPose, ...]:
    """Estimate every mask's pose and calibrate it to world coordinates."""
    return tuple(to_world(estimate_pose(m), cal) for m in scene.masks)


def _int_rows(value: object, width: int, what: str) -> list[tuple[int, ...]]:
    """A non-empty JSON list of rows of exactly `width` ints, as tuples."""
    try:
        rows = [tuple(row) for row in array(value, what, nonempty=True)]
        typed = set(map(len, rows)) == {width} and set(map(type, chain.from_iterable(rows))) <= {int}
    except TypeError:
        typed = False
    if not typed:
        raise ValueError(f"{what} must be lists of {width} integers")
    return rows


def load_mask_file(path: str | Path) -> DetectedScene:
    """Parse a mask JSON document into a DetectedScene.

    Accepts, per object, either an explicit list of [x, y] pixels or row
    run-length encoding ([y, x_start, run_len] triples), all JSON ints; both
    decode to the same pixel set and therefore the same pose. Duplicate
    pixels are rejected.
    """
    doc = record(load_json(path, "mask file"), "mask file")
    masks: list[Mask] = []
    for i, obj in enumerate(array(doc["objects"], "mask file objects")):
        name = text(record(obj, f"mask object {i}")["class"], f"mask object {i} class")
        what = f"object {i} ({name})"
        if "points" in obj:
            points = _int_rows(obj["points"], 2, f"{what} points")
        elif "rle_rows" in obj:
            rows = _int_rows(obj["rle_rows"], 3, f"{what} rle_rows")
            if min(n for _, _, n in rows) < 1:
                raise ValueError(f"{what} has an rle run length below 1")
            points = [(x + k, y) for y, x, n in rows for k in range(n)]
        else:
            raise ValueError(f"{what} needs 'points' or 'rle_rows'")
        if len(set(points)) != len(points):
            raise ValueError(f"{what} contains duplicate points")
        masks.append(Mask(class_name=name, points=tuple(points)))
    return DetectedScene(masks=tuple(masks))


def load_calibration(path: str | Path) -> Calibration:
    doc = record(load_json(path, "calibration"), "calibration")
    return Calibration(
        scale=positive(doc["scale"], "calibration scale"),
        origin=vector(doc["origin"], 2, "calibration origin"),
        image_size=vector(doc.get("image_size", [600, 600]), 2, "calibration image_size"),
    )
