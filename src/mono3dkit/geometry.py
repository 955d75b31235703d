"""Pinhole camera model and virtual-camera normalization.

A *virtual camera* is a canonical pinhole camera (fixed focal length and
image size) into which heterogeneous source cameras are rescaled so that
downstream consumers see one consistent geometry regardless of the sensor
that captured the image.

Conventions: OpenCV-style camera frame (X right, Y down, Z forward; only
Z > 0 is visible), continuous sub-pixel coordinates throughout, all angles
in radians.  Every transform is a pure function written as plain arithmetic
on its arguments, with no conversion: floats in give floats out, and
equal-shaped numpy arrays in give arrays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntrinsicsError, NonPositiveDepthError

__all__ = [
    "CameraIntrinsics",
    "VirtualCameraSpec",
    "VirtualIntrinsics",
    "CamPoint3",
    "AugmentConfig",
    "make_virtual_intrinsics",
    "to_virtual",
    "from_virtual",
    "project",
    "backproject",
    "sample_virtual_camera",
    "sample_viewpoint",
    "rotation_matrix",
    "rotate_point",
    "wrap_angle",
]


def _check_depth(z):
    # NaN compares false, so a NaN depth passes.
    if (np.asarray(z) <= 0).any():
        raise NonPositiveDepthError("depth must be > 0")


def wrap_angle(angle: float) -> float:
    """`angle` in radians, wrapped into (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters of a source camera.

    fx, fy are focal lengths in pixels, (cx, cy) the principal point,
    (width, height) the image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise InvalidIntrinsicsError(f"focal lengths must be positive and finite, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise InvalidIntrinsicsError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx <= self.width) or not (0 <= self.cy <= self.height):
            raise InvalidIntrinsicsError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class VirtualCameraSpec:
    """Target camera: one focal length and image size shared by all inputs."""

    focal: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.focal < math.inf) or self.width <= 0 or self.height <= 0:
            raise InvalidIntrinsicsError(
                f"virtual camera parameters must be positive and finite, got focal={self.focal}, size={self.width}x{self.height}"
            )


@dataclass(frozen=True)
class VirtualIntrinsics:
    """Derived intrinsics of the virtual camera for one source camera.

    sx = W_virtual / W_source and sy = H_virtual / H_source; the principal
    point is the source one scaled by (sx, sy).  Exposes fx/fy aliases so
    :func:`project` and :func:`backproject` accept either intrinsics type.
    """

    focal: float
    cx: float
    cy: float
    sx: float
    sy: float

    @property
    def fx(self):
        return self.focal

    @property
    def fy(self):
        return self.focal


@dataclass(frozen=True)
class CamPoint3:
    """A point in the camera frame, meters.  Fields may be arrays."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class AugmentConfig:
    """Ranges for focal-length and viewpoint augmentation.

    Focal lengths are drawn uniformly from [focal_min, focal_max]; viewpoint
    perturbations are per-axis uniform in +-max_* radians (3 degrees by
    default).
    """

    focal_min: float
    focal_max: float
    max_yaw: float = math.radians(3.0)
    max_pitch: float = math.radians(3.0)
    max_roll: float = math.radians(3.0)

    def __post_init__(self):
        if not (0 < self.focal_min <= self.focal_max):
            raise ValueError(f"invalid focal range [{self.focal_min}, {self.focal_max}]")
        if min(self.max_yaw, self.max_pitch, self.max_roll) < 0:
            raise ValueError("angle ranges must be >= 0")


def make_virtual_intrinsics(intr: CameraIntrinsics, spec: VirtualCameraSpec) -> VirtualIntrinsics:
    """Scale factors and principal point of the virtual camera for `intr`."""
    sx = spec.width / intr.width
    sy = spec.height / intr.height
    return VirtualIntrinsics(focal=spec.focal, cx=intr.cx * sx, cy=intr.cy * sy, sx=sx, sy=sy)


def to_virtual(u, v, z_cam, intr: CameraIntrinsics, spec: VirtualCameraSpec):
    """Map a pixel (u, v) with camera depth z_cam into virtual coordinates.

    Pixels scale with the resolution ratio; depth scales with the focal
    ratio, so the virtual depth satisfies z_v * fx == z_cam * focal.
    """
    _check_depth(z_cam)
    return u * (spec.width / intr.width), v * (spec.height / intr.height), z_cam * spec.focal / intr.fx


def from_virtual(u_v, v_v, z_v, intr: CameraIntrinsics, spec: VirtualCameraSpec) -> CamPoint3:
    """Back-project virtual coordinates into a source-camera 3D point."""
    _check_depth(z_v)
    sx = spec.width / intr.width
    sy = spec.height / intr.height
    z_cam = z_v * intr.fx / spec.focal
    return CamPoint3((u_v / sx - intr.cx) * z_cam / intr.fx, (v_v / sy - intr.cy) * z_cam / intr.fy, z_cam)


def project(point: CamPoint3, camera):
    """Project a camera-frame point to pixels.  `camera` is either
    :class:`CameraIntrinsics` or :class:`VirtualIntrinsics`."""
    _check_depth(point.z)
    return camera.fx * point.x / point.z + camera.cx, camera.fy * point.y / point.z + camera.cy


def backproject(u, v, z, camera) -> CamPoint3:
    """Inverse of :func:`project` at known depth z."""
    _check_depth(z)
    return CamPoint3((u - camera.cx) * z / camera.fx, (v - camera.cy) * z / camera.fy, z)


def sample_virtual_camera(base: VirtualCameraSpec, seed, aug: AugmentConfig) -> VirtualCameraSpec:
    """Draw a virtual camera with focal uniform in the augment range.

    Deterministic for a given seed; resolution is inherited from `base`.
    """
    rng = np.random.default_rng(seed)
    focal = float(rng.uniform(aug.focal_min, aug.focal_max))
    return VirtualCameraSpec(focal=focal, width=base.width, height=base.height)


def sample_viewpoint(seed, aug: AugmentConfig):
    """Draw a (yaw, pitch, roll) perturbation, per-axis uniform."""
    rng = np.random.default_rng(seed)
    return (
        float(rng.uniform(-aug.max_yaw, aug.max_yaw)),
        float(rng.uniform(-aug.max_pitch, aug.max_pitch)),
        float(rng.uniform(-aug.max_roll, aug.max_roll)),
    )


def rotation_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation about the camera axes: yaw about Y (vertical), pitch about X,
    roll about Z (optical axis), composed roll @ pitch @ yaw."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    r_yaw = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    r_roll = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return r_roll @ r_pitch @ r_yaw


def rotate_point(point: CamPoint3, rotation: np.ndarray) -> CamPoint3:
    """Apply a 3x3 rotation to a camera-frame point (array fields supported)."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation.tolist()
    x, y, z = point.x, point.y, point.z
    return CamPoint3(r00 * x + r01 * y + r02 * z, r10 * x + r11 * y + r12 * z, r20 * x + r21 * y + r22 * z)
