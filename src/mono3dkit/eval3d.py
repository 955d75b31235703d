"""KITTI-protocol 3D detection evaluation.

Exact rotated-box IoU on the ground plane (convex polygon clipping), its
3D extension through the vertical slab overlap, average precision at 40
recall points, and the predicted-height diagnostic.  All functions are
pure; multi-image evaluation merges per-image match flags and equals the
sequential result exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import EmptyInputError
from .pseudolabel import Box3D

__all__ = [
    "MatchConfig",
    "EvalFrame",
    "EvalResult",
    "HeightStats",
    "bev_iou",
    "iou3d",
    "box2d_iou",
    "iou_matrix",
    "ap_r40",
    "ap_r40_frames",
    "difficulty_rows",
    "height_histogram",
    "matches_difficulty",
    "DIFFICULTY_NAMES",
]

# Intersection polygons below this area (m^2) are treated as empty.
_AREA_EPS = 1e-12
# Boundary tolerance for the point-left-of-edge test during clipping.
_EDGE_EPS = 1e-9
# Slack on the zero-IoU prefilter's reach, relative to the boxes' radii and
# coordinate magnitudes, covering rounding in the corners and the distance.
_PREFILTER_MARGIN = 1e-6

METRICS = ("3d", "bev", "bbox2d")

# Standard KITTI difficulty gates: min 2D bbox height (px), max occlusion
# state, max truncation, indexed easy/moderate/hard.
DIFFICULTY_NAMES = ("easy", "moderate", "hard")
_MIN_HEIGHT = (40.0, 25.0, 25.0)
_MAX_OCCLUSION = (0, 1, 2)
_MAX_TRUNCATION = (0.15, 0.30, 0.50)


@dataclass(frozen=True)
class MatchConfig:
    """Matching rule for AP: IoU threshold and metric."""

    iou_threshold: float
    metric: str = "3d"
    # KITTI's R40 grid, recall 1/40 .. 1.  A constant: no other count on
    # this grid is a standard metric (R11 samples recall 0, this grid never).
    recall_points: ClassVar[int] = 40

    def __post_init__(self):
        if not (0 < self.iou_threshold <= 1):
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass(frozen=True)
class EvalFrame:
    """Predictions and ground truth of one image.

    bbox arrays (N, 4) as (left, top, right, bottom) are required only for
    the bbox2d metric.  gt_ignored marks ground-truth boxes outside the
    difficulty under evaluation: they do not count toward recall, and a
    prediction overlapping one is removed from the ranking instead of
    becoming a false positive.
    """

    preds: Sequence[Box3D]
    gts: Sequence[Box3D]
    pred_bboxes: Optional[np.ndarray] = None
    gt_bboxes: Optional[np.ndarray] = None
    gt_ignored: Optional[np.ndarray] = None


@dataclass
class EvalResult:
    ap: float
    recall_grid: list
    interpolated_precision: list
    curve: list
    matched: int
    false_positives: int
    ignored_predictions: int
    num_gt: int
    num_predictions: int
    notes: tuple = ()


def matches_difficulty(bbox_height: float, occluded: int, truncated: float, level: int) -> bool:
    """True if a ground-truth box qualifies at KITTI difficulty `level`
    (0 easy, 1 moderate, 2 hard)."""
    if level not in (0, 1, 2):
        raise ValueError(f"difficulty level must be 0, 1 or 2, got {level}")
    return (
        bbox_height >= _MIN_HEIGHT[level]
        and occluded <= _MAX_OCCLUSION[level]
        and truncated <= _MAX_TRUNCATION[level]
    )


def _bev_corners(box: Box3D) -> list:
    """Ground-plane footprint corners (x, z), counter-clockwise.

    Python floats, not numpy scalars: the clipping loop's scalar operations
    cost about ten times as much on ``np.float64``, for the same bits.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x, z = float(box.x), float(box.z)
    hl, hw = float(box.l) / 2.0, float(box.w) / 2.0
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(x + lx * c + lz * s, z - lx * s + lz * c) for lx, lz in local]


def _polygon_area(points) -> float:
    """Shoelace area, summed left to right in Python floats, so the bits do
    not depend on the BLAS kernel, the CPU or the memory layout of `points`."""
    if len(points) < 3:
        return 0.0
    a = b = 0.0
    px, py = points[-1]
    for x, y in points:
        a += x * py
        b += y * px
        px, py = x, y
    return 0.5 * abs(float(a - b))


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of a convex polygon by a convex CCW polygon.

    Points on a clip edge count as inside, so clipping a polygon against
    itself returns the polygon.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i - 1]
        bx, by = clip[i]
        ex, ey = bx - ax, by - ay
        current = output
        output = []
        sx, sy = current[-1]
        s_in = ex * (sy - ay) - ey * (sx - ax) >= -_EDGE_EPS
        for px, py in current:
            p_in = ex * (py - ay) - ey * (px - ax) >= -_EDGE_EPS
            if p_in != s_in:
                d1 = ex * (sy - ay) - ey * (sx - ax)
                d2 = ex * (py - ay) - ey * (px - ax)
                denom = d1 - d2
                if abs(denom) > 1e-30:
                    # With both ends within _EDGE_EPS of the line, d1 and d2
                    # can share a sign; clamping keeps the point on the
                    # segment instead of extrapolating along the edge line.
                    t = min(1.0, max(0.0, d1 / denom))
                    output.append((sx + t * (px - sx), sy + t * (py - sy)))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
    return output


def _bev_intersection(a: Box3D, b: Box3D) -> float:
    inter = _polygon_area(_clip_polygon(_bev_corners(a), _bev_corners(b)))
    return 0.0 if inter < _AREA_EPS else inter


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the two yaw-rotated ground-plane rectangles."""
    inter = _bev_intersection(a, b)
    union = a.w * a.l + b.w * b.l - inter
    if union <= _AREA_EPS:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def iou3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: ground-plane intersection times vertical overlap.

    Boxes span [y - h, y] vertically (bottom-center convention, Y down).
    """
    overlap = min(a.y, b.y) - max(a.y - a.h, b.y - b.h)
    if overlap <= 0:
        return 0.0
    inter = _bev_intersection(a, b) * overlap
    union = a.w * a.l * a.h + b.w * b.l * b.h - inter
    if union <= _AREA_EPS:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def box2d_iou(a, b) -> float:
    """Axis-aligned IoU of two (left, top, right, bottom) boxes."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def iou_matrix(frame: EvalFrame, metric: str) -> np.ndarray:
    """(P, G) IoU of every prediction of `frame` against every ground truth.

    Pairs that provably have IoU 0 are skipped: for 3d and bev, footprints
    whose circumscribed circles are disjoint, and for 3d, boxes without
    vertical overlap.  Every other pair goes through the scalar
    :func:`iou3d`, :func:`bev_iou` or :func:`box2d_iou`, so each entry is
    bit-identical to the scalar value.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "bbox2d" and (frame.pred_bboxes is None or frame.gt_bboxes is None):
        raise ValueError("bbox2d metric needs pred_bboxes and gt_bboxes on every frame")
    preds, gts = frame.preds, frame.gts
    ious = np.zeros((len(preds), len(gts)))
    if ious.size == 0:
        return ious
    if metric == "bbox2d":
        for i, j in np.ndindex(ious.shape):
            ious[i, j] = box2d_iou(frame.pred_bboxes[i], frame.gt_bboxes[j])
        return ious

    def layout(boxes):
        x, z, l, w, y, h = np.array([(b.x, b.z, b.l, b.w, b.y, b.h) for b in boxes], dtype=float).T
        # Circumradius of the footprint grown by the clip tolerance, which
        # moves each edge outward by _EDGE_EPS / (its length).
        radius = 0.5 * np.hypot(l + 2.0 * _EDGE_EPS / w, w + 2.0 * _EDGE_EPS / l)
        slack = _PREFILTER_MARGIN * (radius + np.abs(x) + np.abs(z))
        return x, z, radius + slack, y - h, y

    px, pz, p_reach, p_top, p_bottom = (col[:, None] for col in layout(preds))
    gx, gz, g_reach, g_top, g_bottom = (col[None, :] for col in layout(gts))
    reach = p_reach + g_reach
    # Negated so that pairs with NaN coordinates are left to the scalar IoU.
    candidates = ~((px - gx) ** 2 + (pz - gz) ** 2 > reach * reach)
    if metric == "3d":
        # iou3d's own early exit, evaluated for every pair at once.
        candidates &= ~(np.minimum(p_bottom, g_bottom) - np.maximum(p_top, g_top) <= 0)
    pair_iou = iou3d if metric == "3d" else bev_iou
    for i, j in zip(*np.nonzero(candidates)):
        ious[i, j] = pair_iou(preds[i], gts[j])
    return ious


def _match_frame(frame: EvalFrame, cfg: MatchConfig, ious: np.ndarray):
    """Greedy score-descending matching of one frame by its IoU matrix.

    Returns (flags, num_valid_gt) where flags is a score-ordered list of
    (score, outcome) with outcome 1 = true positive, 0 = false positive,
    -1 = removed from the ranking (overlaps an ignored ground truth).
    Each ground truth is matched at most once; ties in score keep input
    order; IoU ties pick the lowest ground-truth index.
    """
    ignored = (
        np.zeros(len(frame.gts), dtype=bool)
        if frame.gt_ignored is None
        else np.asarray(frame.gt_ignored, dtype=bool)
    )
    if ignored.shape != (len(frame.gts),):
        raise ValueError(f"gt_ignored must have length {len(frame.gts)}")
    ignored = ignored.tolist()
    classes = {b.class_id for b in frame.preds} | {b.class_id for b in frame.gts}
    if len(classes) > 1:
        raise ValueError(f"ap_r40 evaluates one class at a time, got {sorted(classes)}")

    if ious.shape != (len(frame.preds), len(frame.gts)):
        raise ValueError(
            f"IoU matrix shape {ious.shape} does not match "
            f"{len(frame.preds)} predictions x {len(frame.gts)} ground truths"
        )
    rows = ious.tolist()
    order = sorted(range(len(frame.preds)), key=lambda i: -frame.preds[i].score)
    taken = [False] * len(frame.gts)
    flags = []
    for i in order:
        best_valid, best_valid_j = -1.0, -1
        best_ign, best_ign_j = -1.0, -1
        for j, v in enumerate(rows[i]):
            if taken[j]:
                continue
            if ignored[j]:
                if v > best_ign:
                    best_ign, best_ign_j = v, j
            elif v > best_valid:
                best_valid, best_valid_j = v, j
        if best_valid_j >= 0 and best_valid >= cfg.iou_threshold:
            taken[best_valid_j] = True
            flags.append((frame.preds[i].score, 1))
        elif best_ign_j >= 0 and best_ign >= cfg.iou_threshold:
            taken[best_ign_j] = True
            flags.append((frame.preds[i].score, -1))
        else:
            flags.append((frame.preds[i].score, 0))
    return flags, ignored.count(False)


def ap_r40_frames(
    frames: Sequence[EvalFrame], cfg: MatchConfig, ious: Optional[Sequence[np.ndarray]] = None
) -> EvalResult:
    """Average precision over a set of frames, one class.

    Matching is per frame; the (score, outcome) flags are pooled, ranked
    by descending score, and precision is interpolated (max precision at
    recall >= r) at cfg.recall_points evenly spaced recall values.  AP is
    their mean, in percent.  Sharding by frame and merging flags gives
    exactly the sequential result.

    `ious` holds each frame's :func:`iou_matrix` for cfg.metric.  Passing
    it lets evaluations that differ only in gt_ignored, such as
    :func:`difficulty_rows`, share one IoU computation per frame.
    """
    if ious is None:
        ious = [iou_matrix(frame, cfg.metric) for frame in frames]
    elif len(ious) != len(frames):
        raise ValueError(f"got {len(ious)} IoU matrices for {len(frames)} frames")
    all_flags = []
    num_gt = 0
    num_preds = 0
    for frame, frame_ious in zip(frames, ious):
        flags, n_valid = _match_frame(frame, cfg, frame_ious)
        all_flags.extend(flags)
        num_gt += n_valid
        num_preds += len(frame.preds)
    all_flags.sort(key=lambda sf: -sf[0])
    ranked = [outcome for _, outcome in all_flags if outcome >= 0]
    n_ignored = len(all_flags) - len(ranked)

    grid = [(i + 1) / cfg.recall_points for i in range(cfg.recall_points)]
    matched = ranked.count(1)
    curve = []
    notes = ()
    if num_gt == 0:
        # Conventions: nothing to find and nothing claimed is a perfect
        # score; claiming detections against empty ground truth is zero.
        perfect = num_preds == 0
        interp = [1.0 if perfect else 0.0] * cfg.recall_points
        notes = ("empty-ground-truth-and-predictions" if perfect else "empty-ground-truth",)
    else:
        hits = 0
        for rank, outcome in enumerate(ranked, start=1):
            hits += outcome
            curve.append((hits / num_gt, hits / rank))
        # Recall never decreases along the curve, so the points with recall >= r
        # are a suffix of it: interpolate by the best precision of each suffix.
        recalls = [recall for recall, _ in curve]
        suffix_best = list(accumulate(reversed([p for _, p in curve]), max))[::-1] + [0.0]
        interp = [suffix_best[bisect_left(recalls, r)] for r in grid]
    return EvalResult(
        ap=100.0 * sum(interp) / cfg.recall_points,
        recall_grid=grid,
        interpolated_precision=interp,
        curve=curve,
        matched=matched,
        false_positives=len(ranked) - matched,
        ignored_predictions=n_ignored,
        num_gt=num_gt,
        num_predictions=num_preds,
        notes=notes,
    )


def difficulty_rows(frames: Sequence[EvalFrame], gates: Sequence[Sequence[tuple]], cfg: MatchConfig) -> dict:
    """The easy, moderate, hard and all rows of a KITTI evaluation, in that order.

    `gates[k][j]` is the (bbox height, occluded, truncated) of
    ``frames[k].gts[j]``.  A difficulty row ignores the ground truths that
    :func:`matches_difficulty` does not admit at its level; the all row
    scores `frames` as given.  The rows differ only in which ground truths
    they ignore, so all four share one :func:`iou_matrix` per frame.
    """
    ious = [iou_matrix(frame, cfg.metric) for frame in frames]
    rows = {}
    for level, name in enumerate(DIFFICULTY_NAMES):
        gated = [
            replace(frame, gt_ignored=np.array([not matches_difficulty(*g, level) for g in frame_gates], dtype=bool))
            for frame, frame_gates in zip(frames, gates, strict=True)
        ]
        rows[name] = ap_r40_frames(gated, cfg, ious)
    rows["all"] = ap_r40_frames(frames, cfg, ious)
    return rows


def ap_r40(
    preds: Sequence[Box3D],
    gts: Sequence[Box3D],
    cfg: MatchConfig,
    *,
    pred_bboxes=None,
    gt_bboxes=None,
    gt_ignored=None,
) -> EvalResult:
    """Single-frame convenience wrapper around :func:`ap_r40_frames`."""
    frame = EvalFrame(
        preds=list(preds),
        gts=list(gts),
        pred_bboxes=pred_bboxes,
        gt_bboxes=gt_bboxes,
        gt_ignored=gt_ignored,
    )
    return ap_r40_frames([frame], cfg)


@dataclass
class HeightStats:
    counts: np.ndarray
    edges: np.ndarray
    mean: float
    median: float
    variance: float
    count: int

    def bin_centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0


def height_histogram(preds: Sequence[Box3D], bin_width: float) -> HeightStats:
    """Histogram plus summary statistics of predicted box heights.

    Bins are half-open [lo, hi) with edges at multiples of bin_width, so a
    fixed bin_width reproduces identical binning across runs.  Variance is
    the population variance.  Useful as a plausibility check: person
    heights should cluster near typical adult stature.
    """
    if not (0 < bin_width < math.inf):
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    if len(preds) == 0:
        raise EmptyInputError("height_histogram needs at least one box")
    heights = np.array([b.h for b in preds], dtype=float)
    first = math.floor(heights.min() / bin_width)
    last = math.floor(heights.max() / bin_width)
    edges = (np.arange(first, last + 2)) * bin_width
    idx = np.floor(heights / bin_width).astype(int) - first
    counts = np.bincount(idx, minlength=last - first + 1)
    return HeightStats(
        counts=counts,
        edges=edges,
        mean=float(heights.mean()),
        median=float(np.median(heights)),
        variance=float(heights.var()),
        count=int(heights.size),
    )
