import collections
import math
from dataclasses import replace

import numpy as np
import pytest

import fixtures
from mono3dkit import dataio, geometry, kernels, pseudolabel
from mono3dkit.config import PipelineConfig
from mono3dkit.errors import MisalignedInputsError, NonPositiveDepthError
from mono3dkit.geometry import CameraIntrinsics, VirtualCameraSpec, wrap_angle
from mono3dkit.pseudolabel import (
    Box3D,
    ClassPrior,
    Detection2D,
    DepthRaster,
    DimensionPrior,
    LabelingDiagnostics,
    PseudoLabel,
    estimate_dimensions,
    generate_pseudo_labels,
)

INTR = CameraIntrinsics(fx=700.0, fy=700.0, cx=320.0, cy=240.0, width=640, height=480)
IDENTITY_SPEC = VirtualCameraSpec(focal=700.0, width=640, height=480)
PRIOR = DimensionPrior(
    classes={
        "Pedestrian": ClassPrior(width=0.66, length=0.84, height=1.76),
        "Car": ClassPrior(width=1.63, length=3.88, height=1.53),
    }
)


def det(left, top, right, bottom, score=0.9, cls="Pedestrian"):
    return Detection2D(class_id=cls, left=left, top=top, right=right, bottom=bottom, score=score)


def box_center(d):
    """The center of a detection's box, from its edges."""
    return (d.left + d.right) / 2.0, (d.top + d.bottom) / 2.0


def scalar_lattice(start, stop, grid):
    """The fallback lattice in plain floats: start + k * step, or start + (k / div) * delta
    where the step is 0, with the last point stop itself."""
    if grid == 1:
        return [start]
    div, delta = grid - 1, stop - start
    step = delta / div
    return [(k / div * delta if step == 0 else k * step) + start for k in range(div)] + [stop]


def scalar_projection_point(subject, others, grid):
    """Reference: the scalar raster-order scan, one strict-interior test per occluder and point."""

    def inside(o, u, v):
        return o.left < u < o.right and o.top < v < o.bottom

    cu, cv = box_center(subject)
    if not any(inside(o, cu, cv) for o in others):
        return cu, cv, False
    half_w = (subject.right - subject.left) / 4.0
    half_h = (subject.bottom - subject.top) / 4.0
    for v in scalar_lattice(cv - half_h, cv + half_h, grid):
        for u in scalar_lattice(cu - half_w, cu + half_w, grid):
            if not any(inside(o, u, v) for o in others):
                return float(u), float(v), False
    return cu, cv, True


def projection_point(subject, others, grid=5):
    """(u, v, conflict) that pseudolabel._projection_points gives `subject` in an image with `others`."""
    u, v, _, conflict = pseudolabel._projection_points(pseudolabel._edge_array([subject, *others]), grid)
    return float(u[0]), float(v[0]), bool(conflict[0])


def depth_at(raster, u, v, window):
    """pseudolabel._sample_depths at one point; None where it gives no depth."""
    [z] = pseudolabel._sample_depths(raster, np.array([u], dtype=np.float64), np.array([v], dtype=np.float64), window)
    return None if math.isnan(z) else float(z)


def window_depths(raster, u, v, window):
    """The valid float64 depths in the window at (round(u), round(v)); None off the raster."""
    if not (math.isfinite(u) and math.isfinite(v)):
        return None
    col, row = round(u), round(v)
    if not (0 <= col < raster.width and 0 <= row < raster.height):
        return None
    r = window // 2
    patch = raster.values[max(0, row - r) : row + r + 1, max(0, col - r) : col + r + 1].astype(np.float64)
    return patch[np.isfinite(patch) & (patch > 0)]


def valid_pixels(raster):
    """Each pixel's validity as _sample_depths sees it: window 1 gives a depth iff the pixel is valid."""
    v, u = np.indices(raster.values.shape, dtype=np.float64)
    return ~np.isnan(pseudolabel._sample_depths(raster, u.ravel(), v.ravel(), window=1)).reshape(v.shape)


def median_depth(raster, u, v, window):
    """Reference: np.median of the window's valid depths, or None when it has none."""
    valid = window_depths(raster, u, v, window)
    return float(np.median(valid)) if valid is not None and valid.size else None


def per_detection_labels(dets, depth, yaws, intr, spec, prior, threshold, window, grid):
    """Reference: generate_pseudo_labels as one scalar pass per detection over the two oracles above."""
    diag = LabelingDiagnostics(n_detections=len(dets))
    kept = [(d, wrap_angle(float(y))) for d, y in zip(dets, yaws) if d.score >= threshold]
    diag.n_below_threshold = len(dets) - len(kept)
    vintr = geometry.make_virtual_intrinsics(intr, spec)
    labels = []
    for i, (d, yaw) in enumerate(kept):
        u, v, conflict = scalar_projection_point(d, [o for j, (o, _) in enumerate(kept) if j != i], grid)
        diag.n_conflict += conflict
        diag.n_fallback += conflict or (u, v) != box_center(d)
        z = median_depth(depth, u, v, window)
        if z is None:
            diag.n_no_depth += 1
            continue
        if prior.classes.get(d.class_id) is None:
            diag.n_no_prior += 1
            continue
        h, w, l = estimate_dimensions(d, z, yaw, intr, prior)
        center = geometry.backproject(*geometry.to_virtual(*box_center(d), z, intr, spec), vintr)
        box = Box3D(d.class_id, center.x, center.y + h / 2.0, center.z, h, w, l, yaw, d.score)
        bbox = (*vintr.pixel(d.left, d.top), *vintr.pixel(d.right, d.bottom))
        labels.append(PseudoLabel(box=box, source=d, bbox=bbox, point_u=u, point_v=v, conflict=conflict))
    labels.sort(key=lambda entry: -entry.box.score)
    diag.n_emitted = len(labels)
    return labels, diag


def speckled_raster(rng, height, width, dtype):
    """Random depths with about a third of the pixels NaN, inf, 0 or negative."""
    values = rng.uniform(0.5, 60.0, size=(height, width))
    values[rng.random(values.shape) < 0.05] = 7.25  # ties
    mask = rng.random(values.shape) < 0.35
    values[mask] = rng.choice([np.nan, np.inf, 0.0, -3.5], size=int(mask.sum()))
    return DepthRaster(values=values.astype(dtype))


def crowded_scene(rng, n):
    """n boxes with edges on multiples of 4 px and sides of 8k px, so edges, centers and
    grid points often coincide; about 10 % are twins of another box."""
    left = rng.integers(0, n, n) * 4.0
    top = rng.integers(0, 75, n) * 4.0
    width = rng.integers(1, 8, n) * 8.0
    height = rng.integers(1, 8, n) * 8.0
    boxes = [det(l, t, l + w, t + h) for l, t, w, h in zip(left, top, width, height)]
    for i in rng.choice(n, n // 10, replace=False):
        boxes[i] = boxes[int(rng.integers(n))]
    return boxes


class TestDomainTypes:
    def test_bbox_order_enforced(self):
        with pytest.raises(ValueError):
            det(100, 0, 50, 100)
        with pytest.raises(ValueError):
            det(0, 100, 50, 100)

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            det(0, 0, 10, 10, score=1.5)

    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi), (math.tau + 0.5, 0.5)],
    )
    def test_yaw_wrapped_into_half_open_interval(self, raw, expected):
        raster = DepthRaster.from_values(np.full((480, 640), 10.0))
        result = generate_pseudo_labels([det(100, 100, 200, 300)], raster, [raw], INTR, IDENTITY_SPEC, PRIOR)
        [box] = result.boxes
        assert box.yaw == pytest.approx(expected, abs=1e-12)

    def test_yaw_must_be_finite(self):
        raster = DepthRaster.from_values(np.full((480, 640), 10.0))
        with pytest.raises(ValueError, match="yaw must be finite"):
            generate_pseudo_labels([det(100, 100, 200, 300)], raster, [float("nan")], INTR, IDENTITY_SPEC, PRIOR)
        # Only a kept detection's yaw is checked.
        dropped = [det(100, 100, 200, 300, score=0.05)]
        result = generate_pseudo_labels(dropped, raster, [float("nan")], INTR, IDENTITY_SPEC, PRIOR)
        assert result.diagnostics.n_below_threshold == 1

    def test_depth_raster_mask_derivation(self):
        values = np.array([[1.0, -2.0], [np.nan, 5.0]])
        raster = DepthRaster.from_values(values)
        assert valid_pixels(raster).tolist() == [[True, False], [False, True]]
        assert raster.width == 2 and raster.height == 2

    def test_depth_raster_nan_marks_invalid(self):
        raster = DepthRaster.from_values([[1.0, np.nan], [1.0, 1.0]])
        assert valid_pixels(raster).sum() == 3

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            ClassPrior(width=0.0, length=1.0, height=1.0)
        with pytest.raises(ValueError):
            DimensionPrior(classes={}, alpha=1.5, beta=2.0)
        with pytest.raises(ValueError):
            DimensionPrior(classes={}, alpha=0.5, beta=0.9)

    def test_box3d_bottom_center_accessors(self):
        box = Box3D("Car", x=1.0, y=2.0, z=10.0, h=1.5, w=1.6, l=3.9, yaw=0.1, score=0.5)
        assert box.center_y == pytest.approx(1.25)
        assert box.center_point().z == 10.0

    def test_box3d_validation(self):
        with pytest.raises(NonPositiveDepthError):
            Box3D("Car", 0.0, 0.0, -1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Box3D("Car", 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0)


class TestProjectionPoints:
    def test_unoccluded_center(self):
        assert projection_point(det(0, 0, 100, 100), []) == (50.0, 50.0, False)

    def test_occluded_center_falls_back_to_first_clear_grid_point(self):
        subject = det(0, 0, 100, 100)
        occluder = det(0, 0, 60, 100)
        # independent enumeration of the 5x5 lattice over the central
        # quarter (25..75 both axes), rows top to bottom
        expected = None
        for v in np.linspace(25, 75, 5):
            for u in np.linspace(25, 75, 5):
                if not (occluder.left < u < occluder.right and occluder.top < v < occluder.bottom):
                    expected = (float(u), float(v))
                    break
            if expected:
                break
        assert expected == (62.5, 25.0)
        assert projection_point(subject, [occluder]) == (*expected, False)

    def test_fully_occluded_returns_center_with_conflict(self):
        subject = det(0, 0, 100, 100)
        twin = det(0, 0, 100, 100, score=0.8)
        assert projection_point(subject, [twin]) == (50.0, 50.0, True)

    def test_boundary_contact_is_not_occlusion(self):
        subject = det(0, 0, 100, 100)
        # occluder edge passes exactly through the center
        neighbor = det(0, 0, 50, 100)
        assert projection_point(subject, [neighbor]) == (50.0, 50.0, False)

    def test_array_test_equals_scalar_scan(self):
        rng = np.random.default_rng(40)
        outcomes = {"center": 0, "grid": 0, "conflict": 0}
        for n in (50, 120, 250, 400):
            scene = crowded_scene(rng, n)
            subjects = rng.choice(n, 25, replace=False).tolist()
            for i in subjects:
                if i % 2:
                    # occluders whose edges pass exactly through the subject's center
                    subject = scene[i]
                    cu, cv = box_center(subject)
                    scene += [
                        det(cu, subject.top, cu + 4, subject.bottom),
                        det(cu - 4, subject.top, cu, subject.bottom),
                        det(subject.left, cv, subject.right, cv + 4),
                        det(subject.left, cv - 4, subject.right, cv),
                    ]
            edges = pseudolabel._edge_array(scene)
            for grid in (1, 2, 3, 5):
                u, v, _, conflict = pseudolabel._projection_points(edges, grid)
                points = list(zip(u.tolist(), v.tolist(), conflict.tolist()))
                for i in subjects:
                    expected = scalar_projection_point(scene[i], scene[:i] + scene[i + 1 :], grid)
                    assert points[i] == expected
                    if expected[2]:
                        outcomes["conflict"] += 1
                    else:
                        outcomes["center" if expected[:2] == box_center(scene[i]) else "grid"] += 1
        assert min(outcomes.values()) >= 20, outcomes


class TestSampleDepths:
    def test_constant_raster(self):
        raster = DepthRaster.from_values(np.full((20, 20), 5.0))
        assert depth_at(raster, 10.2, 9.7, window=5) == 5.0

    def test_median_of_valid_values(self):
        values = np.full((9, 9), np.nan)
        values[4, 3], values[4, 4], values[4, 5] = 1.0, 2.0, 100.0
        raster = DepthRaster.from_values(values)
        assert depth_at(raster, 4, 4, window=3) == 2.0

    def test_no_valid_depth(self):
        raster = DepthRaster.from_values(np.full((9, 9), np.nan))
        assert depth_at(raster, 4, 4, window=3) is None

    def test_window_clipped_at_border(self):
        values = np.arange(25, dtype=float).reshape(5, 5) + 1.0
        raster = DepthRaster.from_values(values)
        # corner patch holds {1, 2, 6, 7}
        assert depth_at(raster, 0, 0, window=3) == pytest.approx(np.median([1, 2, 6, 7]))

    @pytest.mark.parametrize("window", [4, 0])
    def test_even_window_rejected(self, window):
        raster = DepthRaster.from_values(np.ones((5, 5)))
        with pytest.raises(ValueError):
            depth_at(raster, 2, 2, window=window)

    def test_point_outside_raster_has_no_depth(self):
        raster = DepthRaster.from_values(np.ones((5, 5)))
        for u, v in ((10, 2), (2, -1), (-0.6, 2), (2, 4.6)):
            assert depth_at(raster, u, v, window=3) is None

    def test_invalid_pixels_skipped(self):
        values = np.full((5, 5), 4.0)
        values[2, 2] = 50.0
        assert depth_at(DepthRaster.from_values(values), 2, 2, window=1) == 50.0
        values[1:4, 1:3] = np.nan  # hides 50.0 and five 4.0s, leaving three 4.0s
        raster = DepthRaster.from_values(values)
        assert depth_at(raster, 2, 2, window=3) == 4.0
        assert depth_at(raster, 2, 2, window=1) is None

    def test_even_count_median_on_float32_raster_is_upcast_median(self):
        window = np.array([[7.1, np.nan, 7.3], [0.0, 9.0, -1.0], [np.inf, 12.7, np.nan]], dtype=np.float32)
        upcast = window[np.isfinite(window) & (window > 0)].astype(np.float64)
        assert upcast.size == 4
        # float32 arithmetic would round the mean of the middle pair differently
        assert float(np.median(upcast.astype(np.float32))) != float(np.median(upcast))
        values = np.full((7, 7), np.nan, dtype=np.float32)
        values[2:5, 2:5] = window
        raster = DepthRaster(values=values)
        assert raster.values.dtype == np.float32
        assert depth_at(raster, 3, 3, window=3) == float(np.median(upcast))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_median_equals_upcast_np_median(self, dtype):
        rng = np.random.default_rng(41)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -3.5])
        values = rng.uniform(0.5, 60.0, size=(11, 13))
        values[rng.random(values.shape) < 0.05] = 7.25  # ties
        mask = rng.random(values.shape) < 0.4
        values[mask] = rng.choice(specials, size=int(mask.sum()))
        raster = DepthRaster(values=values.astype(dtype))
        seen = set()
        for window in (1, 3, 5, 7):
            r = window // 2
            for row in range(raster.height):
                for col in range(raster.width):
                    patch = raster.values[max(0, row - r) : row + r + 1, max(0, col - r) : col + r + 1]
                    upcast = patch.astype(np.float64)
                    valid = np.isfinite(upcast) & (upcast > 0)
                    u, v = col + rng.uniform(-0.49, 0.49), row + rng.uniform(-0.49, 0.49)
                    if not valid.any():
                        assert depth_at(raster, u, v, window=window) is None
                        continue
                    assert depth_at(raster, u, v, window=window) == float(np.median(upcast[valid]))
                    seen.add((int(valid.sum()) % 2, patch.size < window * window))
        assert seen == {(0, False), (1, False), (0, True), (1, True)}

    @pytest.mark.parametrize("u,v", [(math.inf, 2), (2, -math.inf), (math.nan, 2), (2, math.nan)])
    def test_non_finite_point_has_no_depth(self, u, v):
        raster = DepthRaster.from_values(np.ones((5, 5)))
        assert depth_at(raster, u, v, window=3) is None

    def test_raster_must_be_2d(self):
        with pytest.raises(ValueError):
            DepthRaster(values=np.ones(4))


class TestEstimateDimensions:
    def test_height_from_projective_relation(self):
        intr = CameraIntrinsics(fx=900.0, fy=900.0, cx=320.0, cy=240.0, width=640, height=480)
        h, _, _ = estimate_dimensions(det(100, 100, 150, 200), z=9.0, yaw=0.0, intr=intr, prior=PRIOR)
        assert h == pytest.approx(1.0, rel=1e-12)

    def test_consistent_box_keeps_prior_dims(self):
        cls = PRIOR.classes["Pedestrian"]
        z = 10.0
        width_px = INTR.fx * cls.width / z
        d = det(100, 100, 100 + width_px, 200)
        _, w, l = estimate_dimensions(d, z=z, yaw=0.0, intr=INTR, prior=PRIOR)
        assert w == pytest.approx(cls.width, rel=1e-12)
        assert l == pytest.approx(cls.length, rel=1e-12)

    def test_clamp_saturates_at_beta(self):
        cls = PRIOR.classes["Pedestrian"]
        z = 10.0
        width_px = INTR.fx * cls.width / z
        d = det(100, 100, 100 + 10 * width_px, 200)
        _, w, l = estimate_dimensions(d, z=z, yaw=0.0, intr=INTR, prior=PRIOR)
        assert w == pytest.approx(2.0 * cls.width, rel=1e-12)
        assert l == pytest.approx(2.0 * cls.length, rel=1e-12)

    def test_clamp_saturates_at_alpha(self):
        cls = PRIOR.classes["Pedestrian"]
        z = 10.0
        width_px = INTR.fx * cls.width / z
        d = det(100, 100, 100 + 0.01 * width_px, 200)
        _, w, _ = estimate_dimensions(d, z=z, yaw=0.0, intr=INTR, prior=PRIOR)
        assert w == pytest.approx(0.5 * cls.width, rel=1e-12)

    def test_yaw_sign_and_pi_symmetry(self):
        d = det(100, 100, 180, 200)
        for yaw in (0.3, 1.1, -2.0):
            base = estimate_dimensions(d, 8.0, yaw, INTR, PRIOR)
            assert estimate_dimensions(d, 8.0, -yaw, INTR, PRIOR) == base
            mirrored = wrap_angle(yaw + math.pi)
            flipped = estimate_dimensions(d, 8.0, mirrored, INTR, PRIOR)
            assert flipped[1] == pytest.approx(base[1], rel=1e-9)
            assert flipped[2] == pytest.approx(base[2], rel=1e-9)

    def test_height_law_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            top = float(rng.uniform(0, 200))
            bottom = top + float(rng.uniform(5, 200))
            z = float(rng.uniform(1, 60))
            h, _, _ = estimate_dimensions(det(10, top, 60, bottom), z, 0.2, INTR, PRIOR)
            assert abs(h * INTR.fy - (bottom - top) * z) <= 1e-9 * abs((bottom - top) * z)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(NonPositiveDepthError):
            estimate_dimensions(det(0, 0, 10, 10), z=0.0, yaw=0.0, intr=INTR, prior=PRIOR)

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            estimate_dimensions(det(0, 0, 10, 10, cls="Unicorn"), 5.0, 0.0, INTR, PRIOR)


class TestGeneratePseudoLabels:
    def constant_raster(self, value=10.0):
        return DepthRaster.from_values(np.full((480, 640), value))

    def test_empty_inputs_give_empty_output(self):
        result = generate_pseudo_labels([], self.constant_raster(), [], INTR, IDENTITY_SPEC, PRIOR)
        assert result.boxes == []
        assert result.diagnostics.n_emitted == 0

    def test_low_score_detection_excluded(self):
        dets = [det(100, 100, 200, 300, score=0.05)]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert result.boxes == []
        assert result.diagnostics.n_below_threshold == 1

    def test_threshold_boundary_kept(self):
        dets = [det(100, 100, 200, 300, score=0.1)]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert len(result.boxes) == 1

    def test_identity_camera_reprojection_consistency(self):
        dets = [det(100, 100, 200, 300, score=0.9)]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.3], INTR, IDENTITY_SPEC, PRIOR)
        [entry] = result.labels
        vintr = geometry.make_virtual_intrinsics(INTR, IDENTITY_SPEC)
        u, v = geometry.project(entry.box.center_point(), vintr)
        assert abs(u - entry.point_u) <= 0.5
        assert abs(v - entry.point_v) <= 0.5
        # with the identity camera the chosen point is the bbox center
        assert (entry.point_u, entry.point_v) == (150.0, 200.0)

    ANISOTROPIC_SPEC = VirtualCameraSpec(focal=900.0, width=1274, height=644)

    def anisotropic_result(self):
        rng = np.random.default_rng(20)
        dets = [
            det(
                float(l), float(t), float(l) + float(rng.uniform(20, 80)), float(t) + float(rng.uniform(30, 90)),
                score=float(rng.uniform(0.2, 1.0)),
            )
            for l, t in rng.uniform(10, 300, size=(6, 2))
        ]
        yaws = [float(rng.uniform(-math.pi, math.pi)) for _ in dets]
        result = generate_pseudo_labels(dets, self.constant_raster(8.0), yaws, INTR, self.ANISOTROPIC_SPEC, PRIOR)
        assert len(result.labels) == len(dets)
        return result, geometry.make_virtual_intrinsics(INTR, self.ANISOTROPIC_SPEC)

    def test_virtual_camera_reprojection_consistency(self):
        result, vintr = self.anisotropic_result()
        for entry in result.labels:
            u, v = geometry.project(entry.box.center_point(), vintr)
            point_u, point_v = vintr.pixel(entry.point_u, entry.point_v)
            assert abs(u - point_u) <= 0.5
            assert abs(v - point_v) <= 0.5

    def test_fallback_label_lifts_the_box_center(self):
        """A row whose center another box covers samples depth at a lattice point,
        but its 3D center still projects to the mapped 2D box center."""
        dets = [det(100, 100, 200, 300, score=0.9), det(100, 100, 160, 300, score=0.8)]
        result = generate_pseudo_labels(
            dets, self.constant_raster(8.0), [0.4, -1.0], INTR, self.ANISOTROPIC_SPEC, PRIOR
        )
        vintr = geometry.make_virtual_intrinsics(INTR, self.ANISOTROPIC_SPEC)
        assert result.diagnostics.n_fallback == 2 and len(result.labels) == 2
        assert any((entry.point_u, entry.point_v) != box_center(entry.source) for entry in result.labels)
        for entry in result.labels:
            u, v = geometry.project(entry.box.center_point(), vintr)
            assert (u, v) == pytest.approx(vintr.pixel(*box_center(entry.source)), abs=1e-9)

    def test_height_law_and_clamp_invariants(self):
        rng = np.random.default_rng(21)
        spec = VirtualCameraSpec(focal=800.0, width=960, height=540)
        dets = []
        yaws = []
        for _ in range(10):
            l = float(rng.uniform(0, 500))
            t = float(rng.uniform(0, 350))
            dets.append(det(l, t, l + float(rng.uniform(10, 120)), t + float(rng.uniform(10, 120)),
                            score=float(rng.uniform(0.1, 1.0))))
            yaws.append(float(rng.uniform(-math.pi, math.pi)))
        depth = DepthRaster.from_values(rng.uniform(3.0, 40.0, size=(480, 640)))
        result = generate_pseudo_labels(dets, depth, yaws, INTR, spec, PRIOR)
        cls = PRIOR.classes["Pedestrian"]
        for entry in result.labels:
            z = entry.box.z * INTR.fx / spec.focal  # depth back in source camera
            expected_h = (entry.source.bottom - entry.source.top) * z / INTR.fy
            assert entry.box.h == pytest.approx(expected_h, rel=1e-9)
            assert PRIOR.alpha - 1e-12 <= entry.box.w / cls.width <= PRIOR.beta + 1e-12
            assert PRIOR.alpha - 1e-12 <= entry.box.l / cls.length <= PRIOR.beta + 1e-12

    def test_no_depth_detections_dropped_and_counted(self):
        values = np.full((480, 640), np.nan)
        values[:, 320:] = 12.0
        raster = DepthRaster.from_values(values)
        dets = [det(10, 10, 60, 60), det(400, 100, 500, 200)]
        result = generate_pseudo_labels(dets, raster, [0.0, 0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert len(result.boxes) == 1
        assert result.diagnostics.n_no_depth == 1

    def test_point_outside_raster_counts_as_no_depth(self):
        raster = DepthRaster.from_values(np.full((100, 100), 5.0))
        dets = [det(150, 10, 260, 60)]  # center lands off the 100x100 raster
        result = generate_pseudo_labels(dets, raster, [0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert result.boxes == []
        assert result.diagnostics.n_no_depth == 1

    def test_infinite_edge_counts_as_no_depth(self):
        raster = DepthRaster.from_values(np.full((100, 100), 5.0))
        dets = [Detection2D("Car", -math.inf, 10, 50, 60, 0.9)]
        result = generate_pseudo_labels(dets, raster, [0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert result.boxes == []
        assert result.diagnostics.n_no_depth == 1

    def test_bbox_is_the_mapped_source_box(self):
        result, vintr = self.anisotropic_result()
        assert vintr.sx != vintr.sy
        for entry in result.labels:
            d = entry.source
            assert entry.bbox == (*vintr.pixel(d.left, d.top), *vintr.pixel(d.right, d.bottom))

    def test_unknown_class_dropped_and_counted(self):
        dets = [det(100, 100, 200, 300, cls="Unicorn")]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert result.boxes == []
        assert result.diagnostics.n_no_prior == 1

    def test_conflict_counted_but_still_emitted(self):
        dets = [det(100, 100, 200, 300, score=0.9), det(100, 100, 200, 300, score=0.8)]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0, 0.0], INTR, IDENTITY_SPEC, PRIOR)
        assert len(result.boxes) == 2
        assert result.diagnostics.n_conflict == 2

    def test_output_sorted_by_descending_score(self):
        rng = np.random.default_rng(22)
        dets = []
        for i in range(8):
            l = 20 + 70 * i
            dets.append(det(l, 50, l + 50, 150, score=float(rng.uniform(0.1, 1.0))))
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0] * 8, INTR, IDENTITY_SPEC, PRIOR)
        scores = [b.score for b in result.boxes]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("grid", [0, -2])
    def test_fallback_grid_below_one_rejected(self, grid):
        # Twins occlude each other's centers, so the lattice would be built.
        for dets in ([det(100, 100, 200, 300)], [det(100, 100, 200, 300), det(100, 100, 200, 300, score=0.8)]):
            with pytest.raises(ValueError, match="fallback_grid"):
                generate_pseudo_labels(
                    dets, self.constant_raster(), [0.0] * len(dets), INTR, IDENTITY_SPEC, PRIOR, fallback_grid=grid
                )

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(MisalignedInputsError):
            generate_pseudo_labels([det(0, 0, 10, 10)], self.constant_raster(), [], INTR, IDENTITY_SPEC, PRIOR)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        dets = [
            det(float(l), float(t), float(l) + 40.0, float(t) + 60.0, score=float(rng.uniform(0.1, 1)))
            for l, t in rng.uniform(10, 300, size=(5, 2))
        ]
        depth = DepthRaster.from_values(rng.uniform(2, 30, size=(480, 640)))
        yaws = [0.1] * 5
        a = generate_pseudo_labels(dets, depth, yaws, INTR, IDENTITY_SPEC, PRIOR)
        b = generate_pseudo_labels(dets, depth, yaws, INTR, IDENTITY_SPEC, PRIOR)
        assert a.boxes == b.boxes

    def test_bottom_center_convention(self):
        dets = [det(100, 100, 200, 300, score=0.9)]
        result = generate_pseudo_labels(dets, self.constant_raster(), [0.0], INTR, IDENTITY_SPEC, PRIOR)
        [box] = result.boxes
        center = geometry.backproject(150.0, 200.0, 10.0, INTR)
        assert box.y == pytest.approx(center.y + box.h / 2.0, rel=1e-12)


class TestOneArrayPassPerImage:
    """generate_pseudo_labels' array pass equals a per-detection run of the scalar oracles."""

    SPEC = VirtualCameraSpec(focal=900.0, width=1274, height=644)

    def scene(self, rng, n):
        """A crowded scene with twins, occluders whose edges pass through a center, scores
        on both sides of the default threshold and a class without a prior."""
        dets = crowded_scene(rng, n)
        for subject in dets[: n // 8]:
            cu, cv = box_center(subject)
            dets += [det(cu, subject.top, cu + 4, subject.bottom), det(subject.left, cv - 4, subject.right, cv)]
        scores = rng.choice([0.05, 0.3, 0.9], size=len(dets)).tolist()
        classes = rng.choice(["Pedestrian", "Pedestrian", "Car", "Unicorn"], size=len(dets)).tolist()
        return [replace(d, score=s, class_id=c) for d, s, c in zip(dets, scores, classes)]

    def assert_equal_to_oracle(self, dets, raster, yaws, window, grid):
        result = generate_pseudo_labels(
            dets, raster, yaws, INTR, self.SPEC, PRIOR, depth_window=window, fallback_grid=grid
        )
        labels, diag = per_detection_labels(dets, raster, yaws, INTR, self.SPEC, PRIOR, 0.1, window, grid)
        assert result.labels == labels
        assert result.diagnostics == diag
        return diag

    @pytest.mark.parametrize("grid", [1, 2, 3, 5])
    def test_crowded_scenes(self, grid):
        rng = np.random.default_rng(50 + grid)
        totals = collections.Counter()
        for n, dtype in ((40, np.float32), (80, np.float64), (120, np.float32)):
            dets = self.scene(rng, n)
            yaws = rng.uniform(-4.0, 4.0, len(dets)).tolist()
            # Narrower and shorter than the scene, so some points fall off the raster.
            raster = speckled_raster(rng, 240, 3 * n, dtype)
            for window in (1, 3, 5):
                diag = self.assert_equal_to_oracle(dets, raster, yaws, window, grid)
                totals.update({k: v for k, v in vars(diag).items() if k != "n_detections"})
        clean = totals["n_emitted"] + totals["n_no_depth"] + totals["n_no_prior"] - totals["n_fallback"]
        assert min(totals["n_no_depth"], totals["n_no_prior"], totals["n_below_threshold"], clean) > 0, totals
        assert 0 < totals["n_conflict"] < totals["n_fallback"], totals

    def test_depth_windows_equal_np_median(self):
        rng = np.random.default_rng(61)
        raster = speckled_raster(rng, 13, 11, np.float32)
        raster.values[:4, :4] = np.nan  # all-invalid windows up to 5x5 at (1, 1)
        # Pixel centers and half-pixel ties (rounded to even), on and off the raster.
        steps = np.arange(-1.5, 14.0, 0.5)
        us, vs = [a.ravel().tolist() for a in np.meshgrid(steps, steps)]
        us += [math.nan, math.inf, 2.0, -math.inf]
        vs += [2.0, 2.0, math.nan, 3.0]
        seen = set()
        for window in (1, 3, 5):
            depths = pseudolabel._sample_depths(raster, np.array(us), np.array(vs), window).tolist()
            for u, v, z in zip(us, vs, depths):
                valid = window_depths(raster, u, v, window)
                if valid is None or not valid.size:
                    assert math.isnan(z)
                    seen.add("off" if valid is None else "empty")
                else:
                    assert z == float(np.median(valid))
                    seen.add("odd" if valid.size % 2 else "even")
        assert seen == {"off", "empty", "odd", "even"}

    def test_no_kept_and_single_detection(self):
        raster = speckled_raster(np.random.default_rng(62), 480, 640, np.float64)
        dets = [det(100, 100, 200, 300, score=0.05), det(120, 110, 180, 250, score=0.09)]
        for scene in ([], dets, dets + [det(90, 90, 210, 320, score=0.5)]):
            yaws = [0.4] * len(scene)
            for window, grid in ((1, 1), (5, 5)):
                self.assert_equal_to_oracle(scene, raster, yaws, window, grid)

    def test_empty_arrays(self):
        empty = np.empty((0, 4))
        assert [a.shape for a in pseudolabel._projection_points(empty, 5)] == [(0,)] * 4
        raster = DepthRaster.from_values(np.ones((5, 5)))
        assert pseudolabel._sample_depths(raster, np.empty(0), np.empty(0), 3).shape == (0,)

    def test_one_row_per_block(self, monkeypatch):
        rng = np.random.default_rng(63)
        dets = self.scene(rng, 60)
        yaws = [0.0] * len(dets)
        raster = speckled_raster(rng, 240, 200, np.float64)
        monkeypatch.setattr(pseudolabel, "_BLOCK_ELEMENTS", 1)
        self.assert_equal_to_oracle(dets, raster, yaws, 3, 3)

    @pytest.mark.parametrize("grid", [1, 2, 3, 4, 5, 6])
    def test_lattice_rows_equal_scalar_linspace(self, grid):
        """Given arrays, np.linspace switches every row to its zero-step formula as soon
        as one row's step is 0 (here a 2 px wide box at 1e16), which for 4 or 6 points
        rounds the other rows differently.  Each row must equal its scalar call."""
        rng = np.random.default_rng(64)
        start = np.round(rng.uniform(0.0, 150.0, 200), 2)
        stop = start + np.round(rng.uniform(2.0, 60.0, 200), 2)
        start[7], stop[7] = 1e16 - 0.5, 1e16 + 0.5
        assert start[7] == stop[7]
        lattice = pseudolabel._lattice(start, stop, grid)
        for row, a, b in zip(lattice.tolist(), start.tolist(), stop.tolist()):
            assert row == np.linspace(a, b, grid).tolist()


class TestHeightResidual:
    """The 2D-3D height consistency of pseudo-labels on the arithmetic truth scene."""

    def test_identity_size_camera_labels_are_height_consistent(self, tmp_path):
        """With a virtual camera of the source's focal and size, every label's height
        projects onto its written 2D box height.  The default camera (1274x644) reads
        median 26.6 and max 49.5 (the clamp is 50): ROADMAP item 1, not asserted here."""
        spec = VirtualCameraSpec(focal=fixtures.KITTI_P2[0], width=fixtures.KITTI_W, height=fixtures.KITTI_H)
        prior = PipelineConfig().dimension_prior()
        ids = fixtures.build_truth_scene(tmp_path)
        images = dataio.read_detections(tmp_path / "detections" / "scene.jsonl")
        losses = []
        for image in ids:
            depth = dataio.read_depth(tmp_path / "depth" / f"{image}.dpr")
            intr = dataio.read_calib(tmp_path / "calib" / f"{image}.txt", depth.width, depth.height)
            entries = images[image]
            result = generate_pseudo_labels(
                [e.detection for e in entries], depth, [e.yaw for e in entries], intr, spec, prior
            )
            for entry in result.labels:
                _, top, _, bottom = entry.bbox
                losses.append(kernels.consistency_loss(entry.box.h, entry.box.z, spec.focal, bottom - top).value)
        assert len(losses) == 24
        assert max(losses) <= 1e-12
