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
from operator import mul
from pathlib import Path
from typing import Sequence

from .jsondoc import load_json

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
    image_size: tuple[int, int] = (600, 600)

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
    """Combine centroid, principal axis, and class label into one pose."""
    x, y = centroid(mask)
    theta, degenerate = principal_angle(mask)
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


def _points_from_rle_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    points: list[tuple[int, int]] = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"rle row must be [y, x_start, run_len], got {row!r}")
        y, x_start, run_len = (int(v) for v in row)
        if run_len < 1:
            raise ValueError(f"rle run length must be >= 1, got {run_len}")
        points.extend((x_start + k, y) for k in range(run_len))
    return points


def load_mask_file(path: str | Path) -> DetectedScene:
    """Parse a mask JSON document into a DetectedScene.

    Accepts, per object, either an explicit point list or row run-length
    encoding ([y, x_start, run_len] triples); both decode to the same pixel
    set and therefore the same pose. Duplicate pixels are rejected.
    """
    doc = load_json(path, "mask file")
    objects = doc.get("objects") if isinstance(doc, dict) else None
    if not isinstance(objects, list):
        raise ValueError("mask file must be an object with an 'objects' list")
    masks: list[Mask] = []
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict) or "class" not in obj:
            raise ValueError(f"object {i} must be an object with a 'class'")
        name = str(obj["class"])
        try:
            if "points" in obj:
                raw = [(int(x), int(y)) for x, y in obj["points"]]
            elif "rle_rows" in obj:
                raw = _points_from_rle_rows(obj["rle_rows"])
            else:
                raise ValueError(f"object {i} needs 'points' or 'rle_rows'")
        except (TypeError, OverflowError):
            raise ValueError(f"object {i} ({name}) has malformed pixel data") from None
        if len(set(raw)) != len(raw):
            raise ValueError(f"object {i} ({name}) contains duplicate points")
        masks.append(Mask(class_name=name, points=tuple(raw)))
    return DetectedScene(masks=tuple(masks))


def load_calibration(path: str | Path) -> Calibration:
    doc = load_json(path, "calibration")
    try:
        origin = (float(doc["origin"][0]), float(doc["origin"][1]))
        size = tuple(int(v) for v in doc.get("image_size", (600, 600)))
        return Calibration(scale=float(doc["scale"]), origin=origin, image_size=size)
    except (TypeError, OverflowError):
        raise ValueError("calibration must hold a number 'scale' and an [x, y] 'origin'") from None
