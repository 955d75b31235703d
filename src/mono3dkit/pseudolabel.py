"""3D pseudo-label generation from frozen 2D detections, depth, and yaw.

Each sufficiently confident 2D detection is turned into a yaw-oriented 3D
box: a projection point is chosen inside the box (dodging overlapping
detections), metric depth is sampled from the depth raster at that point,
the point is lifted into virtual camera space, and the box dimensions are
read off the 2D extent with per-class priors.

The depth raster must hold *metric* depth.  Relative-depth outputs from
monocular estimators are not rescaled here; feeding them in produces boxes
at a wrong, undiagnosed scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import geometry
from .errors import MisalignedInputsError, NonPositiveDepthError, NoValidDepthError
from .geometry import CameraIntrinsics, VirtualCameraSpec, VirtualIntrinsics, wrap_angle

__all__ = [
    "Detection2D",
    "OrientationEstimate",
    "DepthRaster",
    "ClassPrior",
    "DimensionPrior",
    "Box3D",
    "ProjectionPoint",
    "PseudoLabel",
    "LabelingDiagnostics",
    "LabelingResult",
    "select_projection_point",
    "sample_depth",
    "estimate_dimensions",
    "generate_pseudo_labels",
]


@dataclass(frozen=True)
class Detection2D:
    """A 2D detector output: class, pixel-space box edges, confidence."""

    class_id: str
    left: float
    top: float
    right: float
    bottom: float
    score: float

    def __post_init__(self):
        if not (self.left < self.right and self.top < self.bottom):
            raise ValueError(
                f"degenerate bbox ({self.left}, {self.top}, {self.right}, {self.bottom})"
            )
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")

    @property
    def center(self):
        return (self.left + self.right) / 2.0, (self.top + self.bottom) / 2.0


@dataclass(frozen=True)
class OrientationEstimate:
    """Yaw about the camera vertical axis, normalized into (-pi, pi]."""

    yaw: float

    def __post_init__(self):
        if not math.isfinite(self.yaw):
            raise ValueError(f"yaw must be finite, got {self.yaw}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@dataclass(frozen=True)
class DepthRaster:
    """Row-major metric depth map; a pixel is valid iff it is finite and > 0."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {self.values.shape}")

    @classmethod
    def from_values(cls, values, valid=None) -> "DepthRaster":
        """Build a float64 raster; an explicit `valid` mask only narrows validity.

        Pixels where `valid` is False are stored as NaN.
        """
        arr = np.array(values, dtype=np.float64)
        if valid is not None:
            arr[~np.broadcast_to(np.asarray(valid, dtype=bool), arr.shape)] = np.nan
        arr.setflags(write=False)
        return cls(values=arr)

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.values) & (self.values > 0)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ClassPrior:
    """Nominal metric dimensions of one object class."""

    width: float
    length: float
    height: float

    def __post_init__(self):
        if not all(0 < d < math.inf for d in (self.width, self.length, self.height)):
            raise ValueError(f"prior dimensions must be positive and finite: {self}")


@dataclass(frozen=True)
class DimensionPrior:
    """Per-class nominal dimensions plus the scale clamp bounds.

    The estimated 2D/3D size ratio is clamped into [alpha, beta] before it
    multiplies the nominal width and length.
    """

    classes: Mapping[str, ClassPrior]
    alpha: float = 0.5
    beta: float = 2.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1 <= self.beta):
            raise ValueError(f"clamp bounds must satisfy 0 < alpha <= 1 <= beta, got ({self.alpha}, {self.beta})")

    def for_class(self, class_id: str) -> Optional[ClassPrior]:
        return self.classes.get(class_id)


@dataclass(frozen=True)
class Box3D:
    """Yaw-oriented 3D box in camera coordinates.

    (x, y, z) is the bottom-face center with Y pointing down (KITTI label
    convention), so the box spans [y - h, y] vertically.  The geometric
    center is exposed as `center_y`.
    """

    class_id: str
    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    yaw: float
    score: float = 1.0

    def __post_init__(self):
        if min(self.h, self.w, self.l) <= 0:
            raise ValueError(f"box dimensions must be positive: h={self.h}, w={self.w}, l={self.l}")
        if self.z <= 0:
            raise NonPositiveDepthError(f"box depth must be > 0, got {self.z}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")

    @property
    def center_y(self) -> float:
        return self.y - self.h / 2.0

    def center_point(self) -> geometry.CamPoint3:
        return geometry.CamPoint3(self.x, self.center_y, self.z)


@dataclass(frozen=True)
class ProjectionPoint:
    """Chosen projection point; `conflict` means no unoccluded point existed."""

    u: float
    v: float
    conflict: bool = False


def _edge_array(dets: Sequence[Detection2D]) -> np.ndarray:
    """(N, 4) float64 rows of (left, top, right, bottom)."""
    return np.array([(d.left, d.top, d.right, d.bottom) for d in dets], dtype=np.float64).reshape(-1, 4)


def select_projection_point(
    det: Detection2D, others: Sequence[Detection2D] | np.ndarray, grid: int = 5
) -> ProjectionPoint:
    """Pick the pixel whose back-projection will anchor the 3D box.

    `others` holds the occluders, as a sequence of :class:`Detection2D` or
    as an (M, 4) float array of (left, top, right, bottom) rows.  The bbox
    center is used unless it lies strictly inside (boundary does not count)
    another detection.  In that case the central-quarter region (half
    width/height box around the center) is scanned on a grid x grid lattice
    in raster order, and the first point inside no other detection wins.
    If every candidate is occluded the center is returned with the conflict
    flag set; the caller decides what to do with it.
    """
    if not isinstance(others, np.ndarray):
        others = _edge_array(others)
    left, top, right, bottom = others.T
    cu, cv = det.center
    if not ((left < cu) & (cu < right) & (top < cv) & (cv < bottom)).any():
        return ProjectionPoint(cu, cv)
    half_w = (det.right - det.left) / 4.0
    half_h = (det.bottom - det.top) / 4.0
    us = np.linspace(cu - half_w, cu + half_w, grid)
    vs = np.linspace(cv - half_h, cv + half_h, grid)
    in_u = (left[:, None] < us) & (us < right[:, None])
    in_v = (top[:, None] < vs) & (vs < bottom[:, None])
    # Boolean matmul: occluded[v, u] is true iff some occluder holds both.
    clear = np.flatnonzero(~(in_v.T @ in_u))
    if clear.size:
        row, col = divmod(int(clear[0]), grid)
        return ProjectionPoint(float(us[col]), float(vs[row]))
    return ProjectionPoint(cu, cv, conflict=True)


def sample_depth(raster: DepthRaster, u: float, v: float, window: int = 5) -> float:
    """Median of the valid depths in a window x window patch around (u, v).

    The median is robust against depth bleeding across object silhouettes.
    It is exact: the window is read as float64 and, for an even count of
    valid pixels, the two middle values are averaged, as `np.median` does.
    Raises :class:`NoValidDepthError` when (u, v) is not finite, is off the
    raster, or the patch holds no valid pixel.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NoValidDepthError(f"point ({u}, {v}) is not finite")
    col = int(round(float(u)))
    row = int(round(float(v)))
    if not (0 <= col < raster.width and 0 <= row < raster.height):
        raise NoValidDepthError(f"point ({u}, {v}) outside raster {raster.width}x{raster.height}")
    r = window // 2
    r0, r1 = max(0, row - r), min(raster.height, row + r + 1)
    c0, c1 = max(0, col - r), min(raster.width, col + r + 1)
    # tolist() upcasts float32 to float64 exactly; NaN fails the range test.
    depths = sorted(x for x in raster.values[r0:r1, c0:c1].ravel().tolist() if 0 < x < math.inf)
    if not depths:
        raise NoValidDepthError(f"no valid depth in {window}x{window} patch at ({col}, {row})")
    mid = len(depths) // 2
    return float(depths[mid] if len(depths) % 2 else (depths[mid - 1] + depths[mid]) / 2)


def estimate_dimensions(
    det: Detection2D,
    z: float,
    yaw: float,
    intr: CameraIntrinsics,
    prior: DimensionPrior,
):
    """Heuristic metric dimensions (h, w, l) for a detection at depth z.

    Height comes straight from the projective relation
    h = (bottom - top) * z / fy.  Width and length scale the class priors
    by the ratio of the observed 2D width to the width the priors would
    project to at this depth and yaw, clamped into [alpha, beta].
    """
    if z <= 0:
        raise NonPositiveDepthError(f"depth must be > 0, got {z}")
    cls = prior.for_class(det.class_id)
    if cls is None:
        raise KeyError(f"no dimension prior for class {det.class_id!r}")
    h = (det.bottom - det.top) * z / intr.fy
    width_2d = (intr.fx / z) * (abs(cls.width * math.cos(yaw)) + abs(cls.length * math.sin(yaw)))
    if width_2d == 0.0:
        raise ValueError("degenerate projected width; prior dimensions cannot both be zero")
    scale = abs((det.right - det.left) / width_2d)
    clamped = min(max(scale, prior.alpha), prior.beta)
    return h, cls.width * clamped, cls.length * clamped


@dataclass(frozen=True)
class PseudoLabel:
    """One emitted box plus its provenance within the source image."""

    box: Box3D
    source: Detection2D
    point_u: float
    point_v: float
    conflict: bool


@dataclass
class LabelingDiagnostics:
    n_detections: int = 0
    n_below_threshold: int = 0
    n_no_depth: int = 0
    n_no_prior: int = 0
    n_conflict: int = 0
    n_emitted: int = 0


@dataclass
class LabelingResult:
    labels: list = field(default_factory=list)
    diagnostics: LabelingDiagnostics = field(default_factory=LabelingDiagnostics)
    virtual_intrinsics: Optional[VirtualIntrinsics] = None

    @property
    def boxes(self):
        return [entry.box for entry in self.labels]


def generate_pseudo_labels(
    dets: Sequence[Detection2D],
    depth: DepthRaster,
    yaws: Sequence,
    intr: CameraIntrinsics,
    spec: VirtualCameraSpec,
    prior: DimensionPrior,
    *,
    score_threshold: float = 0.1,
    depth_window: int = 5,
    fallback_grid: int = 5,
) -> LabelingResult:
    """Turn one image's detections into virtual-space 3D boxes.

    Detections below `score_threshold` are eliminated up front.  For each
    survivor: choose a projection point (other survivors act as occluders),
    sample metric depth there, lift the point into virtual space, estimate
    dimensions against the original intrinsics, and attach yaw and score.
    Detections whose point has no valid depth, falls off the raster, or
    whose class has no prior are dropped and counted.  Output is sorted by
    descending score (ties keep input order); identical inputs produce
    bit-identical output.  The result also carries the virtual intrinsics
    the boxes were lifted with.

    `yaws` is index-aligned with `dets` and may hold floats or
    :class:`OrientationEstimate` values.
    """
    if len(dets) != len(yaws):
        raise MisalignedInputsError(f"{len(dets)} detections vs {len(yaws)} yaw estimates")
    if not (0.0 <= score_threshold <= 1.0):
        raise ValueError(f"score_threshold {score_threshold} outside [0, 1]")

    diag = LabelingDiagnostics(n_detections=len(dets))
    kept = []
    for det, raw_yaw in zip(dets, yaws):
        if det.score >= score_threshold:
            yaw = raw_yaw if isinstance(raw_yaw, OrientationEstimate) else OrientationEstimate(float(raw_yaw))
            kept.append((det, yaw))
        else:
            diag.n_below_threshold += 1

    vintr = geometry.make_virtual_intrinsics(intr, spec)
    edges = _edge_array([d for d, _ in kept])
    labels = []
    for idx, (det, yaw) in enumerate(kept):
        others = np.concatenate((edges[:idx], edges[idx + 1 :]))
        point = select_projection_point(det, others, grid=fallback_grid)
        if point.conflict:
            diag.n_conflict += 1
        try:
            z = sample_depth(depth, point.u, point.v, window=depth_window)
        except NoValidDepthError:
            diag.n_no_depth += 1
            continue
        if prior.for_class(det.class_id) is None:
            diag.n_no_prior += 1
            continue
        h, w, l = estimate_dimensions(det, z, yaw.yaw, intr, prior)
        u_v, v_v, z_v = geometry.to_virtual(point.u, point.v, z, intr, spec)
        center = geometry.backproject(u_v, v_v, z_v, vintr)
        box = Box3D(
            class_id=det.class_id,
            x=center.x,
            y=center.y + h / 2.0,
            z=center.z,
            h=h,
            w=w,
            l=l,
            yaw=yaw.yaw,
            score=det.score,
        )
        labels.append(PseudoLabel(box=box, source=det, point_u=point.u, point_v=point.v, conflict=point.conflict))

    labels.sort(key=lambda entry: -entry.box.score)
    diag.n_emitted = len(labels)
    return LabelingResult(labels=labels, diagnostics=diag, virtual_intrinsics=vintr)
