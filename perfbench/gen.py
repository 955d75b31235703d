"""Seeded input generator for the perfbench workloads.

Writes the on-disk formats documented in README.md ("File formats") with
its own writers, so a change to ``mono3dkit.dataio`` cannot change the
benchmark's inputs.  It imports numpy only, never mono3dkit.

    python3 perfbench/gen.py --workload kitti-pseudolabel --seed 1 --out DIR

DIR receives the workload's input tree plus ``manifest.json`` with the
counts the benchmark needs (images, detections, prediction x ground-truth
pairs).  The same workload and seed always give the same bytes.  Every
count that sets the amount of work (images, detections per image, boxes
per label file) is fixed, so the seed changes the scenes but not the
size of an op.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 1242, 375
CAM_HEIGHT = 1.65  # camera height above the road (m)
SKY_ROWS = 90  # top rows carry no depth (NaN), like a sky band
FAR = 80.0  # background depth cap (m)

# Nominal (width, length, height) in meters and relative spread.
CLASS_DIMS = {
    "Car": ((1.63, 3.88, 1.53), 0.08),
    "Pedestrian": ((0.66, 0.84, 1.76), 0.10),
    "Cyclist": ((0.60, 1.76, 1.73), 0.10),
}

# Workload shapes: the stated input size of each workload.  Image i of a
# pseudolabel workload places objects[i % len] objects and keeps
# detections[i % len] of those visible enough to be detected.
KITTI_PSEUDOLABEL = {
    "images": 30, "objects": (45,), "detections": (18,), "lateral": 30.0,
    "depth": (8.0, 60.0), "min_visible": 0.25,
    "classes": (("Car", "Pedestrian", "Cyclist"), (0.7, 0.2, 0.1)),
}
CROWD_PSEUDOLABEL = {
    "images": 3, "objects": (200, 300, 400), "detections": (200, 300, 400), "lateral": 30.0,
    "depth": (5.0, 65.0), "min_visible": 0.0,
    "classes": (("Pedestrian", "Cyclist", "Car"), (0.8, 0.15, 0.05)),
}
KITTI_EVAL3D = {"images": 6, "gt_cars": 20, "pred_cars": 25, "pedestrians": 2, "dontcare": 1}
GRADCHECK_POINTS = 5
LOW_SCORE_SHARE = 0.05  # detections below the default score threshold (0.1)


# ------------------------------------------------------------- formats


def _calib_text(fx, fy, cx, cy):
    """A full KITTI calibration file; the toolkit reads P2 from it."""

    def row(name, values):
        return f"{name}: " + " ".join(f"{v:.12e}" for v in values) + "\n"

    baseline = -0.5372 * fx
    return "".join(
        [
            row("P0", [fx, 0, cx, 0, 0, fy, cy, 0, 0, 0, 1, 0]),
            row("P1", [fx, 0, cx, baseline, 0, fy, cy, 0, 0, 0, 1, 0]),
            row("P2", [fx, 0, cx, 44.857, 0, fy, cy, 0.2163, 0, 0, 1, 0.002746]),
            row("P3", [fx, 0, cx, baseline - 3.3, 0, fy, cy, 2.3, 0, 0, 1, 0.00373]),
            row("R0_rect", [0.9999, 0.0098, -0.0074, -0.0099, 0.9999, -0.0043, 0.0074, 0.0044, 0.9999]),
            row("Tr_velo_to_cam", [0.0075, -0.9999, -0.0006, -0.0040, 0.0148, 0.0007,
                                   -0.9999, -0.0763, 0.9999, 0.0075, 0.0148, -0.2718]),
            row("Tr_imu_to_velo", [1.0, 0.0008, -0.0020, -0.8087, -0.0008, 0.9999,
                                   -0.0148, 0.3196, 0.0020, 0.0148, 0.9999, -0.7997]),
        ]
    )


def _dpr_bytes(depth):
    """DPR1 magic, little-endian uint32 width and height, float32 payload."""
    height, width = depth.shape
    return b"DPR1" + struct.pack("<II", width, height) + depth.astype("<f4").tobytes()


def _label_line(cls, trunc, occ, alpha, bbox, h, w, l, x, y, z, ry, score=None):
    """One KITTI object line at 2-decimal precision, score optional."""
    line = (
        f"{cls} {trunc:.2f} {occ:d} {alpha:.2f} "
        f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f} "
        f"{h:.2f} {w:.2f} {l:.2f} {x:.2f} {y:.2f} {z:.2f} {ry:.2f}"
    )
    if score is not None:
        line += f" {score:.2f}"
    return line + "\n"


# ------------------------------------------------------------ geometry


def _intrinsics(rng):
    """KITTI-like P2 with per-image jitter: (fx, fy, cx, cy)."""
    fx = 721.5377 + float(rng.uniform(-14.0, 0.0))
    cx = 609.5593 + float(rng.uniform(-8.0, 8.0))
    cy = 172.854 + float(rng.uniform(-4.0, 4.0))
    return fx, fx, cx, cy


def _wrap(angle):
    wrapped = math.remainder(angle, math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


def _corners(x, y, z, h, w, l, yaw):
    """8 corners (3, 8) of a box whose bottom-face center is (x, y, z)."""
    c, s = math.cos(yaw), math.sin(yaw)
    lx = np.array([1, 1, -1, -1, 1, 1, -1, -1]) * (l / 2.0)
    lz = np.array([1, -1, -1, 1, 1, -1, -1, 1]) * (w / 2.0)
    ly = np.array([0, 0, 0, 0, -h, -h, -h, -h], dtype=float)
    return np.vstack([x + lx * c + lz * s, y + ly, z - lx * s + lz * c])


def _image_box(x, z, h, w, l, yaw, camera, max_truncation):
    """Clipped (left, top, right, bottom) and truncation of a box standing
    on the road, or (None, 1.0) when it is behind the camera, too small
    or truncated beyond `max_truncation`."""
    fx, fy, cx, cy = camera
    corners = _corners(x, CAM_HEIGHT, z, h, w, l, yaw)
    if np.any(corners[2] <= 0.5):
        return None, 1.0
    u = fx * corners[0] / corners[2] + cx
    v = fy * corners[1] / corners[2] + cy
    left, top, right, bottom = float(u.min()), float(v.min()), float(u.max()), float(v.max())
    clipped = (max(left, 0.0), max(top, 0.0), min(right, WIDTH - 1.0), min(bottom, HEIGHT - 1.0))
    if clipped[2] - clipped[0] < 4.0 or clipped[3] - clipped[1] < 4.0:
        return None, 1.0
    kept = (clipped[2] - clipped[0]) * (clipped[3] - clipped[1])
    truncation = 1.0 - kept / ((right - left) * (bottom - top))
    if truncation > max_truncation:
        return None, 1.0
    return clipped, truncation


def _dims(rng, cls):
    (w, l, h), spread = CLASS_DIMS[cls]
    f = rng.normal(1.0, spread, size=3).clip(0.7, 1.3)
    return w * f[0], l * f[1], h * f[2]


def _bev_apart(objects, x, z, radius):
    """True if a footprint of `radius` at (x, z) stays clear of `objects`."""
    return all((x - o[1]) ** 2 + (z - o[3]) ** 2 > (radius + o[6] / 2.0) ** 2 for o in objects)


class Crowded(Exception):
    """No free spot was found for another object."""


def _place(rng, objects, cls, lateral, depth_range, camera, max_truncation=0.5):
    """Append one object of `cls` standing on the road, clear of the others.
    Objects are (cls, x, y, z, h, w, l, yaw, bbox, truncation).  Far
    objects outnumber near ones, as along a road."""
    for _ in range(2_000):
        w, l, h = _dims(rng, cls)
        z = depth_range[0] + (depth_range[1] - depth_range[0]) * math.sqrt(float(rng.random()))
        x = float(rng.uniform(-lateral, lateral))
        yaw = float(rng.uniform(-math.pi, math.pi))
        if not _bev_apart(objects, x, z, l / 2.0):
            continue
        bbox, trunc = _image_box(x, z, h, w, l, yaw, camera, max_truncation)
        if bbox is not None:
            objects.append((cls, x, CAM_HEIGHT, z, h, w, l, yaw, bbox, trunc))
            return
    raise Crowded(f"no room for another {cls} among {len(objects)} objects")


# --------------------------------------------------------- pseudolabel


def _background(rng, camera):
    """Road plane below the horizon, a far wall above it, NaN sky band,
    1 % multiplicative noise."""
    _, fy, _, cy = camera
    rows = np.arange(HEIGHT, dtype=np.float64)[:, None] - cy
    ground = np.where(rows > 0, fy * CAM_HEIGHT / np.maximum(rows, 1e-9), FAR)
    depth = np.broadcast_to(np.minimum(ground, FAR), (HEIGHT, WIDTH)).copy()
    depth *= 1.0 + 0.01 * rng.standard_normal((HEIGHT, WIDTH))
    depth[:SKY_ROWS] = np.nan
    return depth


def _paint(depth, rng, objects):
    """Paint each object's box at its own depth, far to near, so nearer
    objects occlude farther ones.  Returns each object's visible share of
    its box."""
    owner = np.full(depth.shape, -1, dtype=np.int32)
    areas = []
    for i, obj in enumerate(objects):
        left, top, right, bottom = obj[8]
        r0, r1 = int(math.floor(top)), int(math.ceil(bottom)) + 1
        c0, c1 = int(math.floor(left)), int(math.ceil(right)) + 1
        areas.append((r1 - r0) * (c1 - c0))
    for i in sorted(range(len(objects)), key=lambda k: -objects[k][3]):
        left, top, right, bottom = objects[i][8]
        r0, r1 = int(math.floor(top)), int(math.ceil(bottom)) + 1
        c0, c1 = int(math.floor(left)), int(math.ceil(right)) + 1
        patch = depth[r0:r1, c0:c1]
        patch[...] = objects[i][3] * (1.0 + 0.005 * rng.standard_normal(patch.shape))
        owner[r0:r1, c0:c1] = i
    visible = np.bincount(owner[owner >= 0], minlength=len(objects))
    return [visible[i] / areas[i] for i in range(len(objects))]


def _detection(rng, obj, low_score):
    left, top, right, bottom = obj[8]
    jitter = rng.normal(0.0, 1.5, size=4)
    l2, t2 = max(left + jitter[0], 0.0), max(top + jitter[1], 0.0)
    r2, b2 = min(right + jitter[2], WIDTH - 1.0), min(bottom + jitter[3], HEIGHT - 1.0)
    if r2 - l2 < 2.0:
        l2, r2 = left, right
    if b2 - t2 < 2.0:
        t2, b2 = top, bottom
    score = rng.uniform(0.02, 0.09) if low_score else rng.uniform(0.1, 1.0)
    return {
        "class": obj[0],
        "bbox": [round(l2, 2), round(t2, 2), round(r2, 2), round(b2, 2)],
        "score": round(float(score), 4),
        "yaw": round(obj[7] + float(rng.normal(0.0, 0.1)), 4),
    }


def gen_pseudolabel(out: Path, rng, shape):
    """Depth rasters, calibration files and one detection file.  A scene
    is redrawn until all its objects fit and enough of them are visible
    to be detected."""
    det_dir, depth_dir, calib_dir = out / "detections", out / "depth", out / "calib"
    for d in (det_dir, depth_dir, calib_dir):
        d.mkdir(parents=True)
    classes, weights = shape["classes"]
    lines = [json.dumps({"schema": "mono3dkit-detections", "version": 1})]
    n_dets = 0
    for i in range(shape["images"]):
        image = f"{i:06d}"
        n_objects = shape["objects"][i % len(shape["objects"])]
        n = shape["detections"][i % len(shape["detections"])]
        while True:
            camera = _intrinsics(rng)
            objects = []
            try:
                for _ in range(n_objects):
                    cls = str(rng.choice(classes, p=weights))
                    _place(rng, objects, cls, shape["lateral"], shape["depth"], camera)
            except Crowded:
                continue
            depth = _background(rng, camera)
            visible = _paint(depth, rng, objects)
            # A detector misses objects hidden behind nearer ones.
            seen = [obj for obj, share in zip(objects, visible) if share >= shape["min_visible"]]
            if len(seen) >= n:
                break
        picked = sorted(rng.choice(len(seen), size=n, replace=False).tolist())
        low = set(rng.choice(n, size=round(LOW_SCORE_SHARE * n), replace=False).tolist())
        dets = [_detection(rng, seen[k], j in low) for j, k in enumerate(picked)]
        n_dets += len(dets)
        (depth_dir / f"{image}.dpr").write_bytes(_dpr_bytes(depth))
        (calib_dir / f"{image}.txt").write_text(_calib_text(*camera), encoding="ascii")
        lines.append(json.dumps({"image": image, "detections": dets}))
    (det_dir / "detections.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return {"images": shape["images"], "detections": n_dets}


# ---------------------------------------------------------------- eval


def _noisy_copy(rng, obj):
    """A prediction of ground-truth `obj`: depth-proportional location
    noise, 4 % size noise, 0.08 rad yaw noise; the score falls as the
    error grows.  Returns (x, z, h, w, l, yaw, bbox, score)."""
    err = float(abs(rng.normal(0.0, 1.0)))
    sigma = 0.004 * obj[3] + 0.03
    dx = float(rng.normal(0.0, sigma * 0.5))
    dz = float(rng.normal(0.0, sigma)) * (1.0 + err)
    f = rng.normal(1.0, 0.04, size=3)
    score = float(np.clip(rng.uniform(0.5, 1.0) - 0.2 * err, 0.02, 0.99))
    return (obj[1] + dx, obj[3] + dz, obj[4] * f[0], obj[5] * f[1], obj[6] * f[2],
            obj[7] + float(rng.normal(0.0, 0.08)), obj[8], score)


def gen_eval(out: Path, rng, shape):
    """Ground-truth and prediction label directories.

    Ground truth per image: `gt_cars` Cars that do not intersect, plus
    Pedestrians and a DontCare region, which the Car evaluation reads and
    skips.  Predictions per image: exactly `pred_cars` Cars: about 92 % of
    the ground-truth Cars as noisy copies, 8 % of those twice, and
    distractors for the rest.
    """
    gt_dir, pred_dir = out / "gt", out / "pred"
    gt_dir.mkdir(parents=True)
    pred_dir.mkdir(parents=True)
    for i in range(shape["images"]):
        image = f"{i:06d}"
        camera = _intrinsics(rng)
        cars = []
        for _ in range(shape["gt_cars"]):
            _place(rng, cars, "Car", 18.0, (4.0, 55.0), camera, max_truncation=0.6)
        gt_lines = []
        for obj in cars:
            occ = int(rng.choice(4, p=[0.55, 0.25, 0.15, 0.05]))
            alpha = _wrap(obj[7] - math.atan2(obj[1], obj[3]))
            gt_lines.append(_label_line("Car", obj[9], occ, alpha, obj[8], *obj[4:7], *obj[1:4], obj[7]))
        people = []
        for _ in range(shape["pedestrians"]):
            _place(rng, people, "Pedestrian", 8.0, (5.0, 30.0), camera)
        for obj in people:
            gt_lines.append(_label_line("Pedestrian", obj[9], 0, 0.0, obj[8], *obj[4:7], *obj[1:4], obj[7]))
        for _ in range(shape["dontcare"]):
            u0, v0 = float(rng.uniform(0, WIDTH - 60)), float(rng.uniform(SKY_ROWS, HEIGHT - 30))
            gt_lines.append(_label_line("DontCare", -1.0, -1, -10.0, (u0, v0, u0 + 50.0, v0 + 20.0),
                                        -1, -1, -1, -1000, -1000, -1000, -10))
        preds = []
        for obj in cars:
            if rng.random() < 0.92:
                preds.append(_noisy_copy(rng, obj))
                if rng.random() < 0.08:
                    preds.append(_noisy_copy(rng, obj))
        preds = preds[: shape["pred_cars"]]
        distractors = []
        while len(preds) + len(distractors) < shape["pred_cars"]:
            _place(rng, distractors, "Car", 18.0, (4.0, 55.0), camera)
        for obj in distractors:
            preds.append((obj[1], obj[3], *obj[4:8], obj[8], float(rng.uniform(0.02, 0.6))))
        pred_lines = []
        for x, z, h, w, l, yaw, bbox, score in preds:
            yaw = _wrap(yaw)
            alpha = _wrap(yaw - math.atan2(x, z))
            pred_lines.append(_label_line("Car", 0.0, 0, alpha, bbox, h, w, l, x, CAM_HEIGHT, z, yaw, score))
        (gt_dir / f"{image}.txt").write_text("".join(gt_lines), encoding="ascii")
        (pred_dir / f"{image}.txt").write_text("".join(pred_lines), encoding="ascii")
    n = shape["images"]
    return {
        "images": n,
        "gt_boxes": n * shape["gt_cars"],
        "pred_boxes": n * shape["pred_cars"],
        "pairs": n * shape["gt_cars"] * shape["pred_cars"],
    }


# ---------------------------------------------------------------- main


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of `workload` under `out` and return the manifest."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sum(workload.encode())]))
    out.mkdir(parents=True)
    if workload == "kitti-pseudolabel":
        manifest = gen_pseudolabel(out, rng, KITTI_PSEUDOLABEL)
    elif workload == "crowd-pseudolabel":
        manifest = gen_pseudolabel(out, rng, CROWD_PSEUDOLABEL)
    elif workload == "kitti-eval3d":
        manifest = gen_eval(out, rng, KITTI_EVAL3D)
    elif workload == "gradcheck":
        # No files: the input is the kernel seed and the point count.
        manifest = {"points": GRADCHECK_POINTS, "kernel_seed": seed}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["workload"] = workload
    manifest["seed"] = seed
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create; must not exist")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
