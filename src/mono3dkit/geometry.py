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
    "make_virtual_intrinsics",
    "to_virtual",
    "from_virtual",
    "project",
    "backproject",
    "wrap_angle",
]


def _check_depth(z):
    # NaN compares false, so a NaN depth passes.
    if (np.asarray(z) <= 0).any():
        raise NonPositiveDepthError("depth must be > 0")


def _check_image_size(width, height) -> None:
    if width <= 0 or height <= 0:
        raise InvalidIntrinsicsError(f"image size must be positive, got {width}x{height}")


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
        _check_image_size(self.width, self.height)
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

    sx = W_virtual / W_source and sy = H_virtual / H_source.  :meth:`pixel` and
    :meth:`source_pixel` are the one map of pixels between the source and the
    virtual image.  fx = fy = the virtual focal, so :func:`project` and
    :func:`backproject` accept either intrinsics type.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    sx: float
    sy: float

    def pixel(self, u, v):
        """The virtual-image pixel of source pixel (u, v)."""
        return u * self.sx, v * self.sy

    def source_pixel(self, u_v, v_v):
        """The source pixel of virtual-image pixel (u_v, v_v); inverse of :meth:`pixel`."""
        return u_v / self.sx, v_v / self.sy


@dataclass(frozen=True)
class CamPoint3:
    """A point in the camera frame, meters.  Fields may be arrays."""

    x: float
    y: float
    z: float


def make_virtual_intrinsics(intr: CameraIntrinsics, spec: VirtualCameraSpec) -> VirtualIntrinsics:
    """Scale factors and principal point of the virtual camera for `intr`."""
    sx = spec.width / intr.width
    sy = spec.height / intr.height
    return VirtualIntrinsics(fx=spec.focal, fy=spec.focal, cx=intr.cx * sx, cy=intr.cy * sy, sx=sx, sy=sy)


def to_virtual(u, v, z_cam, intr: CameraIntrinsics, spec: VirtualCameraSpec):
    """Map a pixel (u, v) with camera depth z_cam into virtual coordinates.

    Pixels move by :meth:`VirtualIntrinsics.pixel`; depth scales with the
    focal ratio, so the virtual depth satisfies z_v * fx == z_cam * focal.
    """
    _check_depth(z_cam)
    u_v, v_v = make_virtual_intrinsics(intr, spec).pixel(u, v)
    return u_v, v_v, z_cam * spec.focal / intr.fx


def from_virtual(u_v, v_v, z_v, intr: CameraIntrinsics, spec: VirtualCameraSpec) -> CamPoint3:
    """Back-project virtual coordinates into a source-camera 3D point."""
    _check_depth(z_v)
    u, v = make_virtual_intrinsics(intr, spec).source_pixel(u_v, v_v)
    return backproject(u, v, z_v * intr.fx / spec.focal, intr)


def project(point: CamPoint3, camera):
    """Project a camera-frame point to pixels.  `camera` is either
    :class:`CameraIntrinsics` or :class:`VirtualIntrinsics`."""
    _check_depth(point.z)
    return camera.fx * point.x / point.z + camera.cx, camera.fy * point.y / point.z + camera.cy


def backproject(u, v, z, camera) -> CamPoint3:
    """Inverse of :func:`project` at known depth z."""
    _check_depth(z)
    return CamPoint3((u - camera.cx) * z / camera.fx, (v - camera.cy) * z / camera.fy, z)
