import hashlib
import json
import math
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import demoplan
from demoplan import fixtures
from demoplan.jsondoc import array, load_json
from demoplan.pose import (
    Calibration,
    Mask,
    ObjectPose,
    centroid,
    estimate_pose,
    load_calibration,
    load_mask_file,
    principal_angle,
    sense_scene,
    to_world,
)


def mask_of(points, name="thing"):
    return Mask(class_name=name, points=tuple(points))


def angle_distance(a: float, b: float) -> float:
    """Distance between two undirected axes (angles modulo pi)."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def eigensolver_angle(points) -> float:
    """Independent oracle: principal axis via full eigendecomposition."""
    pts = np.asarray(points, dtype=float)
    d = pts - pts.mean(axis=0)
    cov = d.T @ d / len(pts)
    vals, vecs = np.linalg.eigh(cov)
    v = vecs[:, int(np.argmax(vals))]
    return math.atan2(v[1], v[0]) % math.pi


def rect_cloud(width: int, height: int) -> list[tuple[float, float]]:
    return [(float(i), float(j)) for i in range(width) for j in range(height)]


def rotate_points(points, phi, about=None):
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0) if about is None else np.asarray(about, dtype=float)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return [tuple(p) for p in (pts - c) @ rot.T + c]


class TestCentroid:
    def test_symmetric_strip(self):
        assert centroid(mask_of([(0, 0), (1, 0), (2, 0)])) == (1.0, 0.0)

    def test_midpoint(self):
        assert centroid(mask_of([(0, 0), (2, 2)])) == (1.0, 1.0)

    def test_integer_grid_disk_against_summation_oracle(self):
        radius = 57
        pts = [
            (300 + i, 300 + j)
            for i in range(-radius, radius + 1)
            for j in range(-radius, radius + 1)
            if i * i + j * j <= radius * radius
        ]
        assert len(pts) >= 10_000
        # oracle: exhaustive summation without numpy
        ox = sum(p[0] for p in pts) / len(pts)
        oy = sum(p[1] for p in pts) / len(pts)
        cx, cy = centroid(mask_of(pts))
        assert abs(cx - ox) < 1e-9 and abs(cy - oy) < 1e-9
        assert abs(cx - 300.0) <= 0.5 and abs(cy - 300.0) <= 0.5

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            Mask(class_name="x", points=())

    @pytest.mark.parametrize("points", [[(1, 2, 3), (4, 5, 6)], [(1, 2), (3,)], [(1, 2), 3], [(1, 2), (3, 4, 5)]])
    def test_point_that_is_not_a_pair_rejected(self, points):
        with pytest.raises(ValueError, match="is not an"):
            Mask(class_name="x", points=points)


class TestPrincipalAngle:
    def test_horizontal_line(self):
        theta, degenerate = principal_angle(mask_of([(0, 0), (1, 0), (2, 0)]))
        assert theta == 0.0 and not degenerate

    def test_diagonal_line(self):
        theta, degenerate = principal_angle(mask_of([(0, 0), (1, 1), (2, 2)]))
        assert abs(theta - math.pi / 4) < 1e-12 and not degenerate

    def test_single_point_is_degenerate(self):
        theta, degenerate = principal_angle(mask_of([(5, 7)]))
        assert theta == 0.0 and degenerate

    def test_square_is_degenerate(self):
        theta, degenerate = principal_angle(mask_of(rect_cloud(20, 20)))
        assert theta == 0.0 and degenerate

    def test_rotated_rectangle_thirty_degrees(self):
        base = rect_cloud(40, 20)
        phi = math.radians(30.0)
        rotated = rotate_points(base, phi)
        theta, degenerate = principal_angle(mask_of(rotated))
        assert not degenerate
        assert angle_distance(theta, phi) <= 1e-6
        assert angle_distance(theta, eigensolver_angle(rotated)) <= 1e-9

    @pytest.mark.parametrize("deg", range(0, 180, 15))
    def test_rotated_rectangle_sweep(self, deg):
        rotated = rotate_points(rect_cloud(30, 20), math.radians(deg))
        theta, degenerate = principal_angle(mask_of(rotated))
        assert not degenerate
        assert angle_distance(theta, math.radians(deg)) <= 1e-6

    def test_vertical_rectangle(self):
        theta, degenerate = principal_angle(mask_of(rect_cloud(10, 30)))
        assert not degenerate
        assert angle_distance(theta, math.pi / 2) <= 1e-12

    def test_angle_at_the_seam_wraps_to_zero(self):
        """A raw angle of -1e-17 is math.pi modulo pi; the result stays in [0, pi)."""
        theta, degenerate = principal_angle(Mask("seam", moments=(2, 1, 1, 5 * 10**16, 1, 0)))
        assert (theta, degenerate) == (0.0, False)


class TestEstimatePose:
    def test_horizontal_strip(self):
        pose = estimate_pose(mask_of([(0, 0), (1, 0), (2, 0)], name="banana"))
        assert pose == ObjectPose(1.0, 0.0, 0.0, "banana", degenerate=False)

    def test_single_point_pose(self):
        pose = estimate_pose(mask_of([(5, 7)], name="grape"))
        assert pose == ObjectPose(5.0, 7.0, 0.0, "grape", degenerate=True)

    def test_rotated_rectangle_pose(self):
        rotated = rotate_points(rect_cloud(40, 20), math.radians(30.0), about=(100.0, 100.0))
        pose = estimate_pose(mask_of(rotated, name="carrot"))
        assert pose.class_name == "carrot"
        assert angle_distance(pose.theta, math.radians(30.0)) <= 1e-6


class TestToWorld:
    def test_scale_maps_image_center(self):
        cal = Calibration(scale=0.0015, origin=(0.0, 0.0))
        pose = ObjectPose(300.0, 300.0, 0.0, "c")
        out = to_world(pose, cal)
        assert abs(out.x - 0.45) < 1e-12 and abs(out.y - 0.45) < 1e-12

    def test_identity(self):
        pose = ObjectPose(12.0, 9.0, 0.3, "c")
        assert to_world(pose, Calibration(scale=1.0)) == pose

    def test_pure_offset(self):
        cal = Calibration(scale=1.0, origin=(0.1, 0.2))
        pose = ObjectPose(0.0, 0.0, 0.7, "c", degenerate=True)
        out = to_world(pose, cal)
        assert (out.x, out.y, out.theta, out.degenerate) == (0.1, 0.2, 0.7, True)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Calibration(scale=0.0)

    @pytest.mark.parametrize(
        "scale, origin, xy",
        [(1e307, (0.0, 0.0), (0.0, 300.0)), (1e306, (1.7e308, 0.0), (100.0, 0.0))],
        ids=["scaled_y", "offset_x"],
    )
    def test_a_coordinate_past_the_float_range_names_the_class(self, scale, origin, xy):
        with pytest.raises(ValueError, match="mask of class 'carrot' maps to a world pose that is not finite"):
            to_world(ObjectPose(*xy, 0.0, "carrot"), Calibration(scale=scale, origin=origin))


def random_cloud(seed: int) -> np.ndarray:
    """Anisotropic Gaussian cloud with a seeded generator."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    stretch = float(rng.uniform(1.5, 8.0))
    phi = float(rng.uniform(0.0, math.pi))
    base = rng.normal(size=(n, 2)) * np.array([stretch, 1.0])
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return base @ rot.T + rng.uniform(-50, 50, size=2)


def eigen_ratio(points) -> float:
    pts = np.asarray(points, dtype=float)
    d = pts - pts.mean(axis=0)
    cov = d.T @ d / len(pts)
    vals = np.linalg.eigvalsh(cov)
    return float(vals[1] / vals[0]) if vals[0] > 0 else math.inf


class TestAngleProperties:
    @given(seed=st.integers(0, 10**6), phi=st.floats(0.0, math.pi, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_rotation_equivariance(self, seed, phi):
        cloud = random_cloud(seed)
        assume(eigen_ratio(cloud) >= 1.2)
        theta0, deg0 = principal_angle(mask_of(map(tuple, cloud)))
        rotated = rotate_points(cloud, phi)
        theta1, deg1 = principal_angle(mask_of(rotated))
        assert not deg0 and not deg1
        assert angle_distance(theta1, theta0 + phi) <= 1e-6

    @given(
        seed=st.integers(0, 10**6),
        dx=st.floats(-1e3, 1e3, allow_nan=False),
        dy=st.floats(-1e3, 1e3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, seed, dx, dy):
        cloud = random_cloud(seed)
        assume(eigen_ratio(cloud) >= 1.2)
        base_mask = mask_of(map(tuple, cloud))
        moved_mask = mask_of((x + dx, y + dy) for x, y in cloud)
        cx, cy = centroid(base_mask)
        mx, my = centroid(moved_mask)
        assert abs(mx - (cx + dx)) < 1e-6 and abs(my - (cy + dy)) < 1e-6
        assert angle_distance(principal_angle(base_mask)[0], principal_angle(moved_mask)[0]) <= 1e-9

    @given(seed=st.integers(0, 10**6), scale=st.floats(0.01, 100.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_of_angle(self, seed, scale):
        cloud = random_cloud(seed)
        assume(eigen_ratio(cloud) >= 1.2)
        theta0, _ = principal_angle(mask_of(map(tuple, cloud)))
        theta1, _ = principal_angle(mask_of((x * scale, y * scale) for x, y in cloud))
        assert angle_distance(theta0, theta1) <= 1e-9

    def test_oracle_agreement_on_random_clouds(self):
        checked = 0
        seed = 0
        while checked < 300:
            cloud = random_cloud(seed)
            seed += 1
            if eigen_ratio(cloud) < 1.01:
                continue
            theta, degenerate = principal_angle(mask_of(map(tuple, cloud)))
            if degenerate:
                continue
            assert angle_distance(theta, eigensolver_angle(cloud)) <= 1e-9
            checked += 1


class TestMaskFile:
    def write(self, tmp_path, doc):
        path = tmp_path / "masks.json"
        path.write_text(json.dumps(doc))
        return path

    def test_points_and_rle_rows_give_identical_poses(self, tmp_path):
        points = [[10 + i, 20 + j] for j in range(3) for i in range(5)]
        rle = [[20 + j, 10, 5] for j in range(3)]
        doc = {
            "image_size": [600, 600],
            "objects": [
                {"class": "banana", "points": points},
                {"class": "banana", "rle_rows": rle},
            ],
        }
        mask_a, mask_b = load_mask_file(self.write(tmp_path, doc))
        pose_a = estimate_pose(mask_a)
        pose_b = estimate_pose(mask_b)
        assert pose_a == pose_b

    def test_duplicate_points_rejected(self, tmp_path):
        doc = {"image_size": [10, 10], "objects": [{"class": "x", "points": [[1, 1], [1, 1]]}]}
        with pytest.raises(ValueError, match="duplicate"):
            load_mask_file(self.write(tmp_path, doc))

    def test_missing_encoding_rejected(self, tmp_path):
        doc = {"image_size": [10, 10], "objects": [{"class": "x"}]}
        with pytest.raises(ValueError):
            load_mask_file(self.write(tmp_path, doc))

    def test_bad_rle_run_rejected(self, tmp_path):
        doc = {"image_size": [10, 10], "objects": [{"class": "x", "rle_rows": [[0, 0, 0]]}]}
        with pytest.raises(ValueError):
            load_mask_file(self.write(tmp_path, doc))

    def test_sense_scene_calibrates(self, tmp_path):
        doc = {"image_size": [600, 600], "objects": [{"class": "apple", "rle_rows": [[300, 299, 3]]}]}
        scene = load_mask_file(self.write(tmp_path, doc))
        cal = Calibration(scale=0.0015)
        (pose,) = sense_scene(scene, cal)
        assert abs(pose.x - 0.45) < 1e-12 and abs(pose.y - 0.45) < 1e-12

    def test_calibration_file_round_trip(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"scale": 0.002, "origin": [0.1, 0.2], "image_size": [640, 480]}))
        cal = load_calibration(path)
        assert cal == Calibration(scale=0.002, origin=(0.1, 0.2))


def random_pixel_mask(rng: random.Random) -> Mask:
    """Integer pixels scattered over a 1080p frame, duplicates allowed."""
    x0, y0, w, h = rng.randrange(1500), rng.randrange(700), rng.randint(1, 400), rng.randint(1, 400)
    n = rng.randint(1, 300)
    return mask_of((x0 + rng.randrange(w), y0 + rng.randrange(h)) for _ in range(n))


class TestPoseSignature:
    """Poses of the shipped masks and centroids of random pixel masks, pinned by hash."""

    FIXTURE_POSES = "e0eec12ff947de0975a1abb63425d27da768788fd4f9e3ce9b85779f22661412"
    RANDOM_CENTROIDS = "397dd720472661b2ea53ef6e003b709af55703ec7bdb0eb8ef705bda69be5b72"

    def test_fixture_scene_poses_are_unchanged(self):
        cal = load_calibration(fixtures.calibration_path())
        h = hashlib.sha256()
        for task in fixtures.TASKS:
            h.update(repr(sense_scene(load_mask_file(fixtures.masks_path(task)), cal)).encode())
        assert h.hexdigest() == self.FIXTURE_POSES

    def test_integer_mask_centroids_are_unchanged(self):
        rng = random.Random(11)
        h = hashlib.sha256()
        for _ in range(1000):
            h.update(repr(centroid(random_pixel_mask(rng))).encode())
        assert h.hexdigest() == self.RANDOM_CENTROIDS


class TestWithoutNumpy:
    def test_cli_plan_and_run(self, tmp_path):
        """plan and run succeed on a fixture task with numpy blocked from import."""
        plan = tmp_path / "plan.json"
        plan_argv = ["plan", "--labels", str(fixtures.labels_path("pick_place")),
                     "--masks", str(fixtures.masks_path("pick_place")), "--out", str(plan)]
        run_argv = ["run", "--plan", str(plan), "--scenario", str(fixtures.scenario_path("pick_place"))]
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from demoplan.cli import main\n"
            f"sys.exit(main({plan_argv!r}) or main({run_argv!r}))\n"
        )
        src = str(Path(demoplan.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "SUCCESS" in proc.stdout


def rle_of(pixels, rng: random.Random) -> list[list[int]]:
    """Row runs covering a pixel set, with runs split at random points and rows shuffled."""
    rows: dict[int, list[int]] = {}
    for x, y in pixels:
        rows.setdefault(y, []).append(x)
    runs = []
    for y, xs in rows.items():
        xs.sort()
        start = prev = xs[0]
        for x in xs[1:]:
            if x != prev + 1 or rng.random() < 0.3:
                runs.append([y, start, prev - start + 1])
                start = x
            prev = x
        runs.append([y, start, prev - start + 1])
    rng.shuffle(runs)
    return runs


def brute_moments(pixels) -> tuple[int, ...]:
    return (
        len(pixels),
        sum(x for x, _ in pixels),
        sum(y for _, y in pixels),
        sum(x * x for x, _ in pixels),
        sum(y * y for _, y in pixels),
        sum(x * y for x, y in pixels),
    )


def centred_fsum_angle(points) -> tuple[float, bool]:
    """principal_angle as it was before masks became moments: centred, fsum, per point."""
    n = len(points)
    if n < 2:
        return 0.0, True
    mx, my = sum(x for x, _ in points) / n, sum(y for _, y in points) / n
    dx = [x - mx for x, _ in points]
    dy = [y - my for _, y in points]
    cxx = math.fsum(a * a for a in dx) / n
    cyy = math.fsum(b * b for b in dy) / n
    cxy = math.fsum(a * b for a, b in zip(dx, dy)) / n
    half_trace = 0.5 * (cxx + cyy)
    disc = math.sqrt(max(0.25 * (cxx - cyy) ** 2 + cxy * cxy, 0.0))
    lam_max, lam_min = half_trace + disc, half_trace - disc
    if lam_max <= 0.0 or lam_max < 1.05 * lam_min:
        return 0.0, True
    return 0.5 * math.atan2(2.0 * cxy, cxx - cyy) % math.pi, False


class TestMoments:
    def load(self, directory, objects):
        path = directory / "masks.json"
        path.write_text(json.dumps({"objects": objects}))
        return load_mask_file(path)

    @given(
        pixels=st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=200),
        offset=st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_points_and_runs_give_the_brute_force_moments(self, tmp_path_factory, pixels, offset, seed):
        pixels = [(x + offset[0], y + offset[1]) for x, y in pixels]
        rng = random.Random(seed)
        rng.shuffle(pixels)
        from_points, from_runs = self.load(
            tmp_path_factory.mktemp("m"),
            [{"class": "a", "points": [list(p) for p in pixels]}, {"class": "a", "rle_rows": rle_of(pixels, rng)}],
        )
        assert from_points.moments == from_runs.moments == mask_of(pixels).moments == brute_moments(pixels)
        assert estimate_pose(from_points) == estimate_pose(from_runs)

    def test_overlapping_runs_in_one_row_are_rejected(self, tmp_path):
        for runs in ([[0, 0, 3], [0, 2, 2]], [[0, 2, 2], [0, 0, 3]], [[4, 1, 1], [4, 1, 1]], [[1, 0, 9], [0, 0, 1], [1, 3, 1]]):
            with pytest.raises(ValueError, match="contains duplicate points"):
                self.load(tmp_path, [{"class": "x", "rle_rows": runs}])

    def test_touching_runs_repeated_columns_and_unsorted_rows_are_accepted(self, tmp_path):
        runs = [[3, 2, 2], [1, 0, 2], [3, 0, 2], [2, 0, 2]]
        (mask,) = self.load(tmp_path, [{"class": "x", "rle_rows": runs}])
        assert mask.moments == brute_moments([(x, y) for y, x0, k in runs for x in range(x0, x0 + k)])

    def test_a_long_run_is_not_expanded(self, tmp_path):
        (mask,) = self.load(tmp_path, [{"class": "x", "rle_rows": [[7, 0, 10**12]]}])
        assert estimate_pose(mask) == ObjectPose((10**12 - 1) / 2, 7.0, 0.0, "x", degenerate=False)

    def test_float_clouds_agree_with_the_centred_formula(self):
        for seed in range(400):
            cloud = [tuple(map(float, p)) for p in random_cloud(seed)]
            for points in (cloud, [(x * 1e-3 + 1e4, y * 7.0 - 3e3) for x, y in cloud]):
                theta, degenerate = principal_angle(mask_of(points))
                old_theta, old_degenerate = centred_fsum_angle(points)
                assert degenerate == old_degenerate
                assert angle_distance(theta, old_theta) <= 1e-12


def tuple_set_zip_decode(value):
    """The point decode before columns: a tuple per pixel, a set of them, then the sums."""
    what = "object 0 (x)"
    try:
        rows = [tuple(row) for row in array(value, f"{what} points", nonempty=True)]
        typed = set(map(len, rows)) == {2} and set(map(type, chain.from_iterable(rows))) <= {int}
    except TypeError:
        typed = False
    if not typed:
        raise ValueError(f"{what} points must be lists of 2 integers")
    if len(set(rows)) != len(rows):
        raise ValueError(f"{what} contains duplicate points")
    return brute_moments(rows)


BIG = 2**64
COORDS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70), st.sampled_from([BIG, BIG + 1, -BIG, 3 * BIG]))
POINTS = st.lists(COORDS, min_size=2, max_size=2)
BAD_ROWS = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(min_size=2, max_size=2),
    st.fixed_dictionaries({"x": COORDS, "y": COORDS}),
    st.lists(POINTS, min_size=2, max_size=2),
    st.lists(COORDS, min_size=1, max_size=1),
    st.lists(COORDS, min_size=3, max_size=3),
    st.tuples(st.booleans(), COORDS).map(list),
    st.tuples(COORDS, st.floats(allow_nan=False, allow_infinity=False)).map(list),
    st.none(),
)


@st.composite
def point_lists(draw):
    """Points with duplicates inserted next to or far from their original, sometimes one bad row."""
    rows = draw(st.lists(POINTS, min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.sampled_from([i, i + 1, 0, len(rows)]))
        rows.insert(j, list(rows[i]))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROWS))
    return rows


class TestPointColumns:
    """load_mask_file decodes points as columns with the same moments and refusals as a tuple per pixel."""

    CASES = {
        "single": [[5, -7]],
        "single_huge": [[BIG + 3, -(BIG * 5)]],
        "one_row": [[0, 0], [1, 0], [2, 0]],
        "one_column": [[4, 0], [4, 1], [4, 2]],
        "anti_diagonal": [[0, 1], [1, 0]],
        "span_corner": [[0, 3], [1, 0], [0, 0]],
        "negative": [[-1, -1], [-2, 5], [3, -9]],
        "above_2_64": [[BIG, BIG], [BIG + 1, BIG], [BIG, -BIG]],
        "adjacent_duplicate": [[1, 2], [1, 2], [3, 4]],
        "far_duplicate": [[1, 2], [0, 0], [5, 5], [7, 1], [1, 2]],
        "huge_duplicate": [[BIG, -BIG], [0, 0], [BIG, -BIG]],
        "bool_row": [[1, 2], True],
        "bool_value": [[1, 2], [True, 2]],
        "bool_values": [[False, True]],
        "float_value": [[1, 2], [1.0, 3]],
        "string_row": [[1, 2], "ab"],
        "string_values": [["1", "2"]],
        "object_row": [[1, 2], {"x": 1, "y": 2}],
        "nested_row": [[[1, 2], [3, 4]]],
        "short_row": [[1, 2], [3]],
        "long_row": [[1, 2, 3], [4, 5]],
        "null_row": [None],
        "empty": [],
        "not_a_list": {"x": 1},
    }

    @staticmethod
    def outcomes(path):
        def run(fn):
            try:
                return fn()
            except ValueError as exc:
                return str(exc)

        value = load_json(path, "mask file")["objects"][0]["points"]
        return run(lambda: load_mask_file(path)[0].moments), run(lambda: tuple_set_zip_decode(value))

    def check(self, directory, points):
        path = directory / "masks.json"
        path.write_text(json.dumps({"objects": [{"class": "x", "points": points}]}))
        new, old = self.outcomes(path)
        assert new == old, points
        return new

    @pytest.mark.parametrize("name", CASES)
    def test_cases_match_the_tuple_decode(self, tmp_path, name):
        self.check(tmp_path, self.CASES[name])

    def test_cases_cover_moments_and_both_refusals(self, tmp_path):
        results = [self.check(tmp_path, points) for points in self.CASES.values()]
        texts = {r.split(") ", 1)[-1] for r in results if isinstance(r, str)}
        assert texts >= {"contains duplicate points", "points must be lists of 2 integers"}
        assert sum(isinstance(r, tuple) for r in results) >= 7

    @given(points=point_lists())
    @settings(max_examples=300, deadline=None)
    def test_generated_lists_match_the_tuple_decode(self, tmp_path_factory, points):
        self.check(tmp_path_factory.mktemp("p"), points)

    def test_seeded_dense_lists_match_the_tuple_decode(self, tmp_path):
        for seed in range(200):
            rng = random.Random(seed)
            side = rng.randint(1, 6)
            points = [[rng.randrange(side) - side // 2, rng.randrange(side)] for _ in range(rng.randint(1, 12))]
            self.check(tmp_path, points)
