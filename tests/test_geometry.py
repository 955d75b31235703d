import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mono3dkit import geometry
from mono3dkit.errors import InvalidIntrinsicsError, NonPositiveDepthError
from mono3dkit.geometry import (
    CameraIntrinsics,
    CamPoint3,
    VirtualCameraSpec,
    backproject,
    from_virtual,
    make_virtual_intrinsics,
    project,
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
        assert vi.fx == vi.fy == 900.0

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


class TestPixelMap:
    """VirtualIntrinsics.pixel and source_pixel are the one map between source and virtual pixels."""

    def uvz(self, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(0, KITTI_LIKE.width, 1000),
            rng.uniform(0, KITTI_LIKE.height, 1000),
            rng.uniform(0.5, 80.0, 1000),
        )

    def test_source_pixel_inverts_pixel(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, CANON)
        u, v, _ = self.uvz(12)
        back_u, back_v = vi.source_pixel(*vi.pixel(u, v))
        np.testing.assert_allclose(back_u, u, rtol=1e-15)
        np.testing.assert_allclose(back_v, v, rtol=1e-15)

    def test_principal_point_is_the_mapped_source_one(self):
        for spec in (CANON, identity_spec(KITTI_LIKE), VirtualCameraSpec(focal=500.0, width=333, height=999)):
            vi = make_virtual_intrinsics(KITTI_LIKE, spec)
            assert (vi.cx, vi.cy) == vi.pixel(KITTI_LIKE.cx, KITTI_LIKE.cy)

    def test_to_virtual_moves_pixels_by_the_map(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, CANON)
        u, v, z = self.uvz(13)
        u_v, v_v, _ = to_virtual(u, v, z, KITTI_LIKE, CANON)
        assert np.array_equal(np.stack([u_v, v_v]), np.stack(vi.pixel(u, v)))

    def test_from_virtual_is_backproject_of_the_source_pixel(self):
        vi = make_virtual_intrinsics(KITTI_LIKE, CANON)
        u_v, v_v, z_v = self.uvz(14)
        p = from_virtual(u_v, v_v, z_v, KITTI_LIKE, CANON)
        q = backproject(*vi.source_pixel(u_v, v_v), z_v * KITTI_LIKE.fx / CANON.focal, KITTI_LIKE)
        for a, b in ((p.x, q.x), (p.y, q.y), (p.z, q.z)):
            assert np.array_equal(a, b)


def test_only_the_map_knows_the_scale_factors():
    """make_virtual_intrinsics is the one code that divides image sizes, and
    VirtualIntrinsics.pixel/source_pixel the only code that reads sx or sy."""
    found = set()
    for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
        stack = [(node, None) for node in ast.parse(path.read_text()).body]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Attribute) and node.attr in ("sx", "sy"):
                found.add((path.name, func, node.attr))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                sides = {getattr(side, "attr", None) for side in (node.left, node.right)}
                if sides in ({"width"}, {"height"}):
                    found.add((path.name, func, f"{sides.pop()} ratio"))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found == {
        ("geometry.py", "make_virtual_intrinsics", "width ratio"),
        ("geometry.py", "make_virtual_intrinsics", "height ratio"),
        ("geometry.py", "pixel", "sx"),
        ("geometry.py", "pixel", "sy"),
        ("geometry.py", "source_pixel", "sx"),
        ("geometry.py", "source_pixel", "sy"),
    }


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
