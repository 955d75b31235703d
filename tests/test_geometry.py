import math

import numpy as np
import pytest

from mono3dkit.errors import InvalidIntrinsicsError, NonPositiveDepthError
from mono3dkit.geometry import (
    AugmentConfig,
    CameraIntrinsics,
    CamPoint3,
    VirtualCameraSpec,
    backproject,
    from_virtual,
    make_virtual_intrinsics,
    project,
    rotate_point,
    rotation_matrix,
    sample_viewpoint,
    sample_virtual_camera,
    to_virtual,
)

KITTI_LIKE = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9, width=1242, height=375)
CANON = VirtualCameraSpec(focal=900.0, width=1274, height=644)


def identity_spec(intr):
    return VirtualCameraSpec(focal=intr.fx, width=intr.width, height=intr.height)


class TestVirtualIntrinsics:
    def test_kitti_to_canonical_scale(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, CANON)
        assert vi.sx == pytest.approx(1274 / 1242, rel=1e-12)
        assert vi.sy == pytest.approx(644 / 375, rel=1e-12)
        assert vi.cx == pytest.approx(609.6 * 1274 / 1242, rel=1e-12)
        assert vi.focal == 900.0

    def test_identity_spec_gives_unit_scales(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, identity_spec(KITTI_LIKE))
        assert vi.sx == 1.0 and vi.sy == 1.0
        assert vi.cx == KITTI_LIKE.cx and vi.cy == KITTI_LIKE.cy

    def test_exact_doubling(self):
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=100.0, cy=50.0, width=200, height=100)
        spec = VirtualCameraSpec(focal=500.0, width=400, height=200)
        vi = make_virtual_intrinsics(intr, spec)
        assert vi.sx == 2.0
        assert vi.cx == 200.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fx=0.0, fy=700.0, cx=10.0, cy=10.0, width=100, height=100),
            dict(fx=700.0, fy=-1.0, cx=10.0, cy=10.0, width=100, height=100),
            dict(fx=math.nan, fy=700.0, cx=10.0, cy=10.0, width=100, height=100),
            dict(fx=math.inf, fy=700.0, cx=10.0, cy=10.0, width=100, height=100),
            dict(fx=700.0, fy=math.nan, cx=10.0, cy=10.0, width=100, height=100),
            dict(fx=700.0, fy=700.0, cx=10.0, cy=10.0, width=0, height=100),
            dict(fx=700.0, fy=700.0, cx=101.0, cy=10.0, width=100, height=100),
        ],
    )
    def test_invalid_intrinsics_rejected(self, kwargs):
        with pytest.raises(InvalidIntrinsicsError):
            CameraIntrinsics(**kwargs)

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidIntrinsicsError):
            VirtualCameraSpec(focal=-900.0, width=1274, height=644)


class TestVirtualTransforms:
    def test_identity_camera_is_identity_map(self):
        spec = identity_spec(KITTI_LIKE)
        assert to_virtual(100.0, 50.0, 10.0, KITTI_LIKE, spec) == (100.0, 50.0, 10.0)

    def test_depth_scales_with_focal_ratio(self):
        intr = CameraIntrinsics(fx=450.0, fy=450.0, cx=320.0, cy=240.0, width=640, height=480)
        spec = VirtualCameraSpec(focal=900.0, width=640, height=480)
        _, _, z_v = to_virtual(100.0, 50.0, 10.0, intr, spec)
        assert z_v == pytest.approx(20.0, rel=1e-12)

    def test_from_virtual_principal_ray(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, CANON)
        p = from_virtual(vi.cx, vi.cy, 5.0, KITTI_LIKE, CANON)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_from_virtual_unit_offset(self):
        spec = identity_spec(KITTI_LIKE)
        p = from_virtual(KITTI_LIKE.cx + KITTI_LIKE.fx, KITTI_LIKE.cy, 1.0, KITTI_LIKE, spec)
        assert p.x == pytest.approx(1.0, rel=1e-12)
        assert p.z == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_matches_backproject(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0, KITTI_LIKE.width, size=500)
        v = rng.uniform(0, KITTI_LIKE.height, size=500)
        z = rng.uniform(0.5, 80.0, size=500)
        p = from_virtual(*to_virtual(u, v, z, KITTI_LIKE, CANON), KITTI_LIKE, CANON)
        q = backproject(u, v, z, KITTI_LIKE)
        for a, b in ((p.x, q.x), (p.y, q.y), (p.z, q.z)):
            assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))

    def test_depth_scaling_identity(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0.1, 120.0, size=1000)
        _, _, z_v = to_virtual(100.0, 50.0, z, KITTI_LIKE, CANON)
        lhs = z_v * KITTI_LIKE.fx
        rhs = z * CANON.focal
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs))

    def test_monotone_in_focal(self):
        zs = []
        for focal in (600.0, 900.0, 1200.0):
            spec = VirtualCameraSpec(focal=focal, width=1274, height=644)
            zs.append(to_virtual(10.0, 10.0, 7.0, KITTI_LIKE, spec)[2])
        assert zs[0] < zs[1] < zs[2]

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(NonPositiveDepthError):
            to_virtual(1.0, 1.0, 0.0, KITTI_LIKE, CANON)
        with pytest.raises(NonPositiveDepthError):
            from_virtual(1.0, 1.0, -2.0, KITTI_LIKE, CANON)


class TestPinhole:
    def test_optical_axis_hits_principal_point(self):
        u, v = project(CamPoint3(0.0, 0.0, 7.3), KITTI_LIKE)
        assert (u, v) == (KITTI_LIKE.cx, KITTI_LIKE.cy)

    def test_offset_point(self):
        intr = CameraIntrinsics(fx=700.0, fy=700.0, cx=600.0, cy=200.0, width=1200, height=400)
        u, _ = project(CamPoint3(1.0, 0.0, 2.0), intr)
        assert u == pytest.approx(950.0, rel=1e-12)

    def test_project_backproject_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = CamPoint3(rng.uniform(-30, 30), rng.uniform(-10, 10), rng.uniform(0.5, 60))
            u, v = project(p, KITTI_LIKE)
            q = backproject(u, v, p.z, KITTI_LIKE)
            assert q.x == pytest.approx(p.x, rel=1e-9, abs=1e-12)
            assert q.y == pytest.approx(p.y, rel=1e-9, abs=1e-12)

    def test_backproject_project_pixel_identity(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(0, KITTI_LIKE.width, size=200)
        v = rng.uniform(0, KITTI_LIKE.height, size=200)
        z = rng.uniform(0.5, 60, size=200)
        u2, v2 = project(backproject(u, v, z, KITTI_LIKE), KITTI_LIKE)
        assert np.allclose(u2, u, rtol=1e-9, atol=1e-9)
        assert np.allclose(v2, v, rtol=1e-9, atol=1e-9)

    def test_project_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepthError):
            project(CamPoint3(0.0, 0.0, 0.0), KITTI_LIKE)
        with pytest.raises(NonPositiveDepthError):
            backproject(1.0, 1.0, -1.0, KITTI_LIKE)


def xyz(p):
    return p.x, p.y, p.z


class TestScalarArrayAgreement:
    """A scalar call equals the matching element of the array call."""

    TRANSFORMS = {
        "to_virtual": lambda u, v, z: to_virtual(u, v, z, KITTI_LIKE, CANON),
        "from_virtual": lambda u, v, z: xyz(from_virtual(u, v, z, KITTI_LIKE, CANON)),
        "project": lambda u, v, z: project(CamPoint3(u, v, z), KITTI_LIKE),
        "backproject": lambda u, v, z: xyz(backproject(u, v, z, make_virtual_intrinsics(KITTI_LIKE, CANON))),
    }

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_scalar_equals_array_element(self, name):
        fn = self.TRANSFORMS[name]
        rng = np.random.default_rng(21)
        u = rng.uniform(-50.0, KITTI_LIKE.width + 50.0, size=64)
        v = rng.uniform(-50.0, KITTI_LIKE.height + 50.0, size=64)
        z = rng.uniform(0.1, 120.0, size=64)
        arrays = fn(u, v, z)
        assert all(isinstance(a, np.ndarray) and a.shape == u.shape for a in arrays)
        for i in range(u.size):
            scalars = fn(float(u[i]), float(v[i]), float(z[i]))
            assert all(type(s) is float for s in scalars)
            assert scalars == tuple(a[i] for a in arrays)

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_nonpositive_depth_rejected_for_both_kinds(self, name, bad):
        fn = self.TRANSFORMS[name]
        with pytest.raises(NonPositiveDepthError):
            fn(1.0, 2.0, bad)
        with pytest.raises(NonPositiveDepthError):
            fn(np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([5.0, bad]))

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_nan_depth_passes_the_depth_check(self, name):
        fn = self.TRANSFORMS[name]
        assert math.isnan(fn(1.0, 2.0, math.nan)[-1])
        assert np.isnan(fn(np.array([1.0]), np.array([2.0]), np.array([math.nan]))[-1]).all()


class TestAugmentation:
    def test_degenerate_range_is_constant(self):
        aug = AugmentConfig(focal_min=900.0, focal_max=900.0)
        for seed in range(5):
            assert sample_virtual_camera(CANON, seed, aug).focal == 900.0

    def test_deterministic_for_seed(self):
        aug = AugmentConfig(focal_min=600.0, focal_max=1200.0)
        a = sample_virtual_camera(CANON, 42, aug)
        b = sample_virtual_camera(CANON, 42, aug)
        assert a == b

    def test_sample_mean_near_range_center(self):
        aug = AugmentConfig(focal_min=600.0, focal_max=1200.0)
        draws = [sample_virtual_camera(CANON, seed, aug).focal for seed in range(10_000)]
        assert abs(np.mean(draws) - 900.0) <= 0.02 * 900.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(focal_min=1200.0, focal_max=600.0)
        with pytest.raises(ValueError):
            AugmentConfig(focal_min=-5.0, focal_max=600.0)

    def test_viewpoint_within_limits_and_deterministic(self):
        aug = AugmentConfig(focal_min=900.0, focal_max=900.0)
        a = sample_viewpoint(7, aug)
        assert a == sample_viewpoint(7, aug)
        assert all(abs(angle) <= math.radians(3.0) for angle in a)

    def test_rotation_matrix_orthonormal(self):
        r = rotation_matrix(0.03, -0.02, 0.01)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, rel=1e-12)

    def test_rotate_point_round_trip(self):
        r = rotation_matrix(0.05, 0.02, -0.04)
        p = CamPoint3(1.0, -2.0, 10.0)
        q = rotate_point(rotate_point(p, r), r.T)
        assert q.x == pytest.approx(p.x, abs=1e-12)
        assert q.y == pytest.approx(p.y, abs=1e-12)
        assert q.z == pytest.approx(p.z, abs=1e-12)

    def test_zero_angles_identity(self):
        assert np.allclose(rotation_matrix(0.0, 0.0, 0.0), np.eye(3))
