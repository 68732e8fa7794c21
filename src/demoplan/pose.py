"""Planar object pose from instance masks.

An object detection stage upstream yields, per object, a class label and the
set of pixels covering it. Pose here is (x, y, theta, c): the mask centroid,
the orientation of the principal axis relative to the horizontal image axis,
and the class label. Theta is an axis, not a direction, so it lives in
[0, pi). Masks whose pixel covariance is close to isotropic (squares, round
fruit) have no meaningful axis and are flagged degenerate with theta = 0.

A mask is reduced at load to its exact integer moments n, Sx, Sy, Sxx, Syy
and Sxy (Hu 1962). A point list is type-checked and split into an x column
and a y column in one flat pass, and the duplicate check and the sums read
the columns; a run-length row has a closed form and is never expanded into
pixels. A mask whose moments do not fit a float is a ValueError.

json builds one list per pixel of a point list, and every collection of the
cyclic garbage collector during a load walks them all, so load_mask_file
pauses the collector until the decoded document is dropped. Pausing only
around the decode would leave one collection of every row.

A fixed overhead camera reduces calibration to a scale and an offset, which
is what to_world applies.
"""

from __future__ import annotations

import gc
import math
from dataclasses import InitVar, dataclass, replace
from itertools import chain, repeat
from operator import add, mul
from pathlib import Path
from typing import Iterable, Sequence

from .jsondoc import array, load_json, positive, record, text, vector

# Eigenvalue ratio below which a mask is treated as isotropic.
ISO_EPS = 0.05


@dataclass(frozen=True)
class Mask:
    """One detected object instance, held as the raw moments of its pixel set.

    ``moments`` is (n, Sx, Sy, Sxx, Syy, Sxy) over the coordinates times
    ``scale``, a power of two that makes every coordinate an int, so each sum
    is exact. ``Mask(class_name, points)`` computes them from a point cloud,
    and refuses with ValueError any point that is not an (x, y) pair.
    """

    class_name: str
    points: InitVar[Iterable[tuple[float, float]] | None] = None
    moments: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)
    scale: int = 1

    def __post_init__(self, points) -> None:
        if points is not None:
            points = list(points)
            for p in points:
                if not isinstance(p, (tuple, list)) or len(p) != 2:
                    raise ValueError(f"mask point {p!r} is not an (x, y) pair")
            values, scale = [v for p in points for v in p], 1  # x0, y0, x1, y1, ...
            if any(type(v) is not int for v in values):  # onto one power-of-two grid
                ratios = [float(v).as_integer_ratio() for v in values]
                scale = max(d for _, d in ratios)
                values = [p * (scale // d) for p, d in ratios]
            object.__setattr__(self, "moments", _point_moments(values[0::2], values[1::2]))
            object.__setattr__(self, "scale", scale)
        if self.moments[0] < 1:
            raise ValueError("mask must contain at least one point")


def _point_moments(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, int, int, int, int, int]:
    return len(xs), sum(xs), sum(ys), sum(map(mul, xs, xs)), sum(map(mul, ys, ys)), sum(map(mul, xs, ys))


def _run_moments(runs: list[list[int]]) -> tuple[int, int, int, int, int, int]:
    """Moments of row runs (y, x_start, k), each in closed form over x, x+1, ..., x+k-1."""
    n = sx = sy = sxx = syy = sxy = 0
    for y, x, k in runs:
        rx = k * x + k * (k - 1) // 2
        n += k
        sx += rx
        sy += k * y
        sxx += k * x * x + x * k * (k - 1) + (k - 1) * k * (2 * k - 1) // 6
        syy += k * y * y
        sxy += y * rx
    return n, sx, sy, sxx, syy, sxy


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

    def __post_init__(self) -> None:
        if not (0.0 < self.scale < math.inf and all(map(math.isfinite, self.origin))):
            raise ValueError("calibration needs a finite positive scale and a finite origin")


def centroid(mask: Mask) -> tuple[float, float]:
    """Arithmetic mean of the mask's pixel coordinates, each one correctly rounded sum / n."""
    n, sx, sy = mask.moments[:3]
    return sx / (n * mask.scale), sy / (n * mask.scale)


def principal_angle(mask: Mask) -> tuple[float, bool]:
    """Orientation of the direction of largest variance, in [0, pi).

    With A = n*Sxx - Sx**2, B = n*Syy - Sy**2 and C = n*Sxy - Sx*Sy, exact
    ints, the population covariance is (A, B, C) / (n*scale)**2 and
    theta = 0.5 * atan2(2C, A - B). Returns (0.0, True) for fewer than two
    points or an eigenvalue ratio below 1 + ISO_EPS.
    """
    n, sx, sy, sxx, syy, sxy = mask.moments
    if n < 2:
        return 0.0, True
    nn = (n * mask.scale) ** 2
    a, b, c = n * sxx - sx * sx, n * syy - sy * sy, n * sxy - sx * sy
    cxx, cyy, cxy = a / nn, b / nn, c / nn
    half_trace = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.25 * (cxx - cyy) ** 2 + cxy * cxy, 0.0))
    lam_max, lam_min = half_trace + disc, half_trace - disc
    if lam_max <= 0.0 or lam_max < (1.0 + ISO_EPS) * lam_min:
        return 0.0, True
    theta = 0.5 * math.atan2(2 * c / nn, (a - b) / nn)
    theta %= math.pi
    if theta >= math.pi:  # guard against rounding at the seam
        theta -= math.pi
    return theta, False


def estimate_pose(mask: Mask) -> ObjectPose:
    """Combine centroid, principal axis, and class label into one pose.

    Moments too large for a float are a ValueError naming the mask's class.
    """
    try:
        x, y = centroid(mask)
        theta, degenerate = principal_angle(mask)
    except OverflowError:
        raise ValueError(f"mask of class {mask.class_name!r} has moments too large for a float") from None
    return ObjectPose(x=x, y=y, theta=theta, class_name=mask.class_name, degenerate=degenerate)


def to_world(pose: ObjectPose, cal: Calibration) -> ObjectPose:
    """Map a pixel-space pose into world coordinates; angle and label pass through.

    A world coordinate too large for a float is a ValueError naming the class.
    """
    x, y = cal.origin[0] + cal.scale * pose.x, cal.origin[1] + cal.scale * pose.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"mask of class {pose.class_name!r} maps to a world pose that is not finite")
    return replace(pose, x=x, y=y)


def sense_scene(masks: Iterable[Mask], cal: Calibration) -> tuple[ObjectPose, ...]:
    """Estimate every mask's pose and calibrate it to world coordinates."""
    return tuple(to_world(estimate_pose(m), cal) for m in masks)


def _int_rows(value: object, what: str) -> list[list[int]]:
    """A non-empty JSON list of run-length rows, each a list of exactly 3 ints, returned as it is."""
    rows = array(value, what, nonempty=True)
    typed = set(map(type, rows)) == {list} and set(map(len, rows)) == {3}
    if typed and {int}.issuperset(map(type, chain.from_iterable(rows))):  # a bool is not an int here
        return rows
    raise ValueError(f"{what} must be lists of 3 integers")


def load_mask_file(path: str | Path) -> tuple[Mask, ...]:
    """Parse a mask JSON document into the instance masks of one camera frame, each carrying its class.

    Each object holds exactly one encoding: "points", a list of [x, y]
    pixels, or "rle_rows", row run-length encoding as [y, x_start, run_len]
    triples, all JSON ints. Both reduce to the same moments and therefore
    the same pose. Duplicate pixels, and runs that overlap within a row, are
    rejected, and so is a key other than image_size and objects, or in an
    object other than class and its encoding. An image_size, which nothing
    reads, must still be a pair when given. The cyclic collector is off
    until the decoded document is dropped, and on again only if it was on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_masks(path)  # the decoded document goes with the callee's frame, before the finally
    finally:
        if enabled:
            gc.enable()


def _read_masks(path: str | Path) -> tuple[Mask, ...]:
    doc = record(load_json(path, "mask file"), "mask file", ("image_size", "objects"))
    if "image_size" in doc:
        vector(doc["image_size"], 2, "mask file image_size")
    masks: list[Mask] = []
    for i, obj in enumerate(array(doc["objects"], "mask file objects")):
        obj = record(obj, f"mask object {i}", ("class", "points", "rle_rows"))
        name = text(obj["class"], f"mask object {i} class")
        what = f"object {i} ({name})"
        if ("points" in obj) == ("rle_rows" in obj):
            raise ValueError(f"{what} needs exactly one of 'points' and 'rle_rows'")
        if "points" in obj:
            rows = array(obj["points"], f"{what} points", nonempty=True)
            pairs = set(map(type, rows)) == {list} and set(map(len, rows)) == {2}
            flat = list(chain.from_iterable(rows)) if pairs else []  # x0, y0, x1, y1, ...
            if not (pairs and {int}.issuperset(map(type, flat))):  # a bool is not an int here
                raise ValueError(f"{what} points must be lists of 2 integers")
            xs, ys = flat[0::2], flat[1::2]
            span = max(ys) - min(ys) + 1  # x*span + y is one int per pixel, distinct for distinct pixels
            unique = len(set(map(add, map(mul, xs, repeat(span)), ys))) == len(xs)
            moments = _point_moments(xs, ys)
        else:
            runs = sorted(_int_rows(obj["rle_rows"], f"{what} rle_rows"))
            if min(k for _, _, k in runs) < 1:
                raise ValueError(f"{what} has an rle run length below 1")
            unique = all(y0 != y1 or x0 + k0 <= x1 for (y0, x0, k0), (y1, x1, _) in zip(runs, runs[1:]))
            moments = _run_moments(runs)
        if not unique:
            raise ValueError(f"{what} contains duplicate points")
        masks.append(Mask(name, moments=moments))
    return tuple(masks)


def load_calibration(path: str | Path) -> Calibration:
    """Read a calibration file; an image_size, which nothing reads, must still be a pair when given.

    A key other than scale, origin and image_size is a ValueError that names it.
    """
    doc = record(load_json(path, "calibration"), "calibration", ("scale", "origin", "image_size"))
    scale = positive(doc["scale"], "calibration scale")
    origin = vector(doc["origin"], 2, "calibration origin")
    if "image_size" in doc:
        vector(doc["image_size"], 2, "calibration image_size")
    return Calibration(scale=scale, origin=origin)
