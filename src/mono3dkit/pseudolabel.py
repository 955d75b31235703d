"""3D pseudo-label generation from frozen 2D detections, depth, and yaw.

Each sufficiently confident 2D detection is turned into a yaw-oriented 3D
box: a projection point is chosen inside the box (dodging overlapping
detections), metric depth is sampled from the depth raster at that point,
the 2D box center is lifted at the sampled depth into virtual camera space,
and the box dimensions are read off the 2D extent with per-class priors.

The depth raster must hold *metric* depth.  Relative-depth outputs from
monocular estimators are not rescaled here; feeding them in produces boxes
at a wrong, undiagnosed scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import geometry
from .errors import MisalignedInputsError, NonPositiveDepthError
from .geometry import CameraIntrinsics, VirtualCameraSpec, wrap_angle

__all__ = [
    "Detection2D",
    "DepthRaster",
    "ClassPrior",
    "DimensionPrior",
    "Box3D",
    "PseudoLabel",
    "LabelingDiagnostics",
    "LabelingResult",
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


@dataclass(frozen=True)
class DepthRaster:
    """Row-major metric depth map; a pixel is valid iff it is finite and > 0."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {self.values.shape}")

    @classmethod
    def from_values(cls, values) -> "DepthRaster":
        """Build a read-only float64 copy of `values`."""
        arr = np.array(values, dtype=np.float64)
        arr.setflags(write=False)
        return cls(values=arr)

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


# Most (row, lattice step, occluder) elements one block of the fallback test
# holds, so its temporaries stay small however crowded the image is.
_BLOCK_ELEMENTS = 1 << 16


def _edge_array(dets: Sequence[Detection2D]) -> np.ndarray:
    """(N, 4) float64 rows of (left, top, right, bottom)."""
    return np.array([(d.left, d.top, d.right, d.bottom) for d in dets], dtype=np.float64).reshape(-1, 4)


def _lattice(start: np.ndarray, stop: np.ndarray, grid: int) -> np.ndarray:
    """(N, grid) rows ``k * step + start``, k = 0 .. grid - 1, step = (stop - start) / (grid - 1),
    or ``k / (grid - 1) * (stop - start) + start`` in a row whose step is 0, ending at `stop`
    (grid 1 gives `start` alone): the arithmetic of ``np.linspace``, written out row by row."""
    if grid == 1:
        return start[:, None]
    div = grid - 1
    k = np.arange(grid, dtype=np.float64)
    delta = (stop - start)[:, None]
    step = delta / div
    out = np.where(step == 0, k / div * delta, k * step) + start[:, None]
    out[:, -1] = stop
    return out


def _box_centers(edges: np.ndarray):
    """The (u, v) arrays of the 2D box centers of an (N, 4) edge array."""
    return (edges[:, 0] + edges[:, 2]) / 2.0, (edges[:, 1] + edges[:, 3]) / 2.0


def _projection_points(edges: np.ndarray, grid: int):
    """The pixel where each box of one image's (N, 4) edge array samples its depth.

    A box keeps its center unless another row holds it strictly inside (a
    shared edge does not count; a row never occludes itself, a twin at
    another index does).  Then the grid x grid :func:`_lattice` over its
    central quarter (the half width/height box around the center) is scanned
    row by row from the top, left to right, and the first point inside no
    other box wins; if there is none, the center stays and the row is a
    conflict.  Returns the arrays (u, v, occluded, conflict), where
    `occluded` marks the rows whose center another box contains.
    """
    cu, cv = _box_centers(edges)
    left, top, right, bottom = edges.T
    # Built in place: at N = 400 each (N, N) temporary is 160 kB.
    covered = left < cu[:, None]
    covered &= cu[:, None] < right
    covered &= top < cv[:, None]
    covered &= cv[:, None] < bottom
    np.fill_diagonal(covered, False)
    occluded = covered.any(axis=1)
    u, v, conflict = cu.copy(), cv.copy(), occluded.copy()
    rows = np.flatnonzero(occluded)
    if not rows.size:
        return u, v, occluded, conflict
    half_w = (edges[rows, 2] - edges[rows, 0]) / 4.0
    half_h = (edges[rows, 3] - edges[rows, 1]) / 4.0
    us = _lattice(cu[rows] - half_w, cu[rows] + half_w, grid)
    vs = _lattice(cv[rows] - half_h, cv[rows] + half_h, grid)
    step = max(1, _BLOCK_ELEMENTS // (len(edges) * grid))
    for lo in range(0, rows.size, step):
        block = np.arange(lo, min(lo + step, rows.size))
        bu, bv = us[block, :, None], vs[block, :, None]
        in_u = (left < bu) & (bu < right)
        in_v = (top < bv) & (bv < bottom)
        in_u[np.arange(block.size), :, rows[block]] = False
        # Boolean matmul: hit[k, i, j] is true iff some occluder holds (us[j], vs[i]).
        clear = ~(in_v @ in_u.transpose(0, 2, 1)).reshape(block.size, grid * grid)
        found = clear.any(axis=1)
        row, col = np.divmod(clear.argmax(axis=1), grid)
        at = rows[block]
        u[at] = np.where(found, us[block, col], u[at])
        v[at] = np.where(found, vs[block, row], v[at])
        conflict[at] = ~found
    return u, v, occluded, conflict


def _sample_depths(raster: DepthRaster, u: np.ndarray, v: np.ndarray, window: int) -> np.ndarray:
    """Median of the valid (finite, > 0) depths in the window x window patch at each (u[i], v[i]).

    The patch is centered on the pixel (round(u), round(v)), rounding half to
    even, and clipped at the raster border; the median resists depth bleeding
    across object silhouettes.  It is exact, as `np.median` of the valid depths
    in float64: an even count averages the two middle values.  It is NaN for
    a point that is not finite or is off the raster, or a patch with no valid
    pixel.  `window` must be odd.

    One gather takes every window x window patch as float64.  Pixels that are
    invalid or off the raster read as +inf, so after a row sort the valid
    depths come first and the middle of each row's valid count is its median.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    # np.rint rounds half to even, as round() does; NaN and inf fail the range test.
    col, row = np.rint(u), np.rint(v)
    on_raster = (0 <= col) & (col < raster.width) & (0 <= row) & (row < raster.height)
    offsets = np.arange(window) - window // 2
    rows = np.where(on_raster, row, 0).astype(np.intp)[:, None] + offsets
    cols = np.where(on_raster, col, 0).astype(np.intp)[:, None] + offsets
    row_ok = (0 <= rows) & (rows < raster.height)
    col_ok = (0 <= cols) & (cols < raster.width)
    patch = raster.values[np.where(row_ok, rows, 0)[:, :, None], np.where(col_ok, cols, 0)[:, None, :]]
    patch = patch.astype(np.float64, copy=False)
    valid = on_raster[:, None, None] & row_ok[:, :, None] & col_ok[:, None, :] & (0 < patch) & (patch < np.inf)
    patch[~valid] = np.inf
    patch = np.sort(patch.reshape(u.size, window * window), axis=1)
    count = valid.reshape(u.size, window * window).sum(axis=1)
    at, mid = np.arange(u.size), count // 2
    upper, lower = patch[at, mid], patch[at, np.maximum(mid - 1, 0)]
    return np.where(count == 0, np.nan, np.where(count % 2 == 1, upper, (lower + upper) / 2))


@dataclass(frozen=True)
class PseudoLabel:
    """One emitted box plus its provenance within the source image."""

    box: Box3D
    source: Detection2D
    bbox: tuple  # `source`'s (left, top, right, bottom) in virtual pixels
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
    n_fallback: int = 0  # kept detections whose bbox center another one occludes
    n_emitted: int = 0


@dataclass
class LabelingResult:
    labels: list = field(default_factory=list)
    diagnostics: LabelingDiagnostics = field(default_factory=LabelingDiagnostics)

    @property
    def boxes(self):
        return [entry.box for entry in self.labels]


def generate_pseudo_labels(
    dets: Sequence[Detection2D],
    depth: DepthRaster,
    yaws: Sequence[float],
    intr: CameraIntrinsics,
    spec: VirtualCameraSpec,
    prior: DimensionPrior,
    *,
    score_threshold: float = 0.1,
    depth_window: int = 5,
    fallback_grid: int = 5,
) -> LabelingResult:
    """Turn one image's detections into virtual-space 3D boxes.

    Detections below `score_threshold` are eliminated up front.  The
    survivors go through one array pass: choose every projection point
    (other survivors act as occluders), sample metric depth at each, and
    lift the 2D box centers at those depths, and the 2D boxes, into virtual
    space.  The point only supplies the depth.  At the sampled source depth
    z, a box gets h = (bottom - top) * z / fy and the prior's width and
    length times the 2D box width over (fx / z) * (|width * cos yaw| +
    |length * sin yaw|), clamped into [alpha, beta]; its y is the bottom
    face, the lifted center's y + h / 2.  Detections whose point has no
    valid depth, falls off the raster, or whose class has no prior are
    dropped and counted.  Output is sorted by descending score (ties keep
    input order); identical inputs produce bit-identical output.

    `yaws` is index-aligned with `dets`: one yaw in radians per detection.
    """
    if len(dets) != len(yaws):
        raise MisalignedInputsError(f"{len(dets)} detections vs {len(yaws)} yaw estimates")
    if not (0.0 <= score_threshold <= 1.0):
        raise ValueError(f"score_threshold {score_threshold} outside [0, 1]")
    if fallback_grid < 1:
        raise ValueError(f"fallback_grid must be >= 1, got {fallback_grid}")

    diag = LabelingDiagnostics(n_detections=len(dets))
    kept = []
    for det, yaw in zip(dets, yaws):
        if det.score >= score_threshold:
            yaw = float(yaw)
            if not math.isfinite(yaw):
                raise ValueError(f"yaw must be finite, got {yaw}")
            kept.append((det, wrap_angle(yaw)))
        else:
            diag.n_below_threshold += 1

    vintr = geometry.make_virtual_intrinsics(intr, spec)
    edges = _edge_array([d for d, _ in kept])
    us, vs, occluded, conflict = _projection_points(edges, fallback_grid)
    zs = _sample_depths(depth, us, vs, depth_window)
    has_depth = ~np.isnan(zs)
    priors = [prior.classes.get(d.class_id) for d, _ in kept]
    has_prior = np.array([cls is not None for cls in priors], dtype=bool)
    lift = np.flatnonzero(has_depth & has_prior)
    diag.n_fallback = int(occluded.sum())
    diag.n_conflict = int(conflict.sum())
    diag.n_no_depth = int((~has_depth).sum())
    diag.n_no_prior = int((has_depth & ~has_prior).sum())

    z = zs[lift]
    u_v, v_v, z_v = geometry.to_virtual(*_box_centers(edges[lift]), z, intr, spec)
    center = geometry.backproject(u_v, v_v, z_v, vintr)
    # cos and sin come from math, row by row: numpy's can differ by 1 ulp.
    rows = [(priors[i].width, priors[i].length, math.cos(kept[i][1]), math.sin(kept[i][1])) for i in lift.tolist()]
    prior_w, prior_l, cos, sin = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    left, top, right, bottom = edges[lift].T
    # Overflow gives inf (and inf / inf NaN) quietly, as Python floats do; the clamp maps inf to beta.
    with np.errstate(over="ignore", invalid="ignore"):
        h = (bottom - top) * z / intr.fy
        width_2d = (intr.fx / z) * (np.abs(prior_w * cos) + np.abs(prior_l * sin))
        if (width_2d == 0.0).any():
            raise ValueError("degenerate projected width; prior dimensions cannot both be zero")
        scale = np.minimum(np.maximum(np.abs((right - left) / width_2d), prior.alpha), prior.beta)
        w, l, y = prior_w * scale, prior_l * scale, center.y + h / 2.0
    columns = (lift, us[lift], vs[lift], conflict[lift], center.x, y, center.z, h, w, l)
    bboxes = zip(*(c.tolist() for c in (*vintr.pixel(left, top), *vintr.pixel(right, bottom))))
    labels = []
    for (i, u, v, flag, x, y, z_virtual, h, w, l), bbox in zip(zip(*(c.tolist() for c in columns)), bboxes):
        det, yaw = kept[i]
        box = Box3D(
            class_id=det.class_id,
            x=x,
            y=y,
            z=z_virtual,
            h=h,
            w=w,
            l=l,
            yaw=yaw,
            score=det.score,
        )
        labels.append(PseudoLabel(box=box, source=det, bbox=bbox, point_u=u, point_v=v, conflict=flag))

    labels.sort(key=lambda entry: -entry.box.score)
    diag.n_emitted = len(labels)
    return LabelingResult(labels=labels, diagnostics=diag)
