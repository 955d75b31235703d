"""Synthetic on-disk scenes for CLI and end-to-end tests."""

import numpy as np

from mono3dkit.dataio import DetectionEntry, write_depth, write_detections
from mono3dkit.pseudolabel import Detection2D

CLASSES = ("Pedestrian", "Car", "Cyclist")
RASTER_W, RASTER_H = 320, 240


def write_calib(path, fx, fy, cx, cy):
    line = f"P2: {fx} 0.0 {cx} 0.0 0.0 {fy} {cy} 0.0 0.0 0.0 1.0 0.0\n"
    path.write_text(line)


def build_scene(root, n_images=20, seed=123, dets_per_image=(1, 6)):
    """Create detections/, depth/ and calib/ dirs under `root`.

    Returns the list of image ids.  Depth rasters carry an invalid left
    band plus random speckle so the no-depth path gets exercised; scores
    are quantized to two decimals to survive label round trips.
    """
    rng = np.random.default_rng(seed)
    det_dir = root / "detections"
    depth_dir = root / "depth"
    calib_dir = root / "calib"
    for d in (det_dir, depth_dir, calib_dir):
        d.mkdir(parents=True, exist_ok=True)

    images = {}
    ids = []
    for i in range(n_images):
        image = f"{i:06d}"
        ids.append(image)

        depth = rng.uniform(4.0, 30.0, size=(RASTER_H, RASTER_W))
        depth[:, :8] = np.nan
        speckle = rng.random(size=depth.shape) < 0.01
        depth[speckle] = -1.0
        write_depth(depth, depth_dir / f"{image}.dpr")

        fx = float(rng.uniform(400.0, 800.0))
        fy = fx * float(rng.uniform(0.98, 1.02))
        cx = RASTER_W / 2 + float(rng.uniform(-5, 5))
        cy = RASTER_H / 2 + float(rng.uniform(-5, 5))
        write_calib(calib_dir / f"{image}.txt", fx, fy, cx, cy)

        entries = []
        for _ in range(int(rng.integers(*dets_per_image))):
            cls = CLASSES[int(rng.integers(0, len(CLASSES)))]
            left = float(rng.uniform(10, RASTER_W - 90))
            top = float(rng.uniform(10, RASTER_H - 90))
            right = left + float(rng.uniform(20, 70))
            bottom = top + float(rng.uniform(30, 70))
            score = round(float(rng.uniform(0.05, 0.99)), 2)
            yaw = float(rng.uniform(-np.pi, np.pi))
            entries.append(DetectionEntry(Detection2D(cls, left, top, right, bottom, score), yaw))
        images[image] = entries

    write_detections(images, det_dir / "scene.jsonl")
    return ids


def build_fixed_scene(root):
    """Create a two-image scene under `root` by arithmetic alone, with no RNG,
    so that no change to numpy's random stream can move it.  Returns the ids.

    Each image has a row of boxes plus a twin (a conflict), a box whose center
    a wider one covers (a fallback-grid hit), a score below the default
    threshold, a class with no prior and a box centered off the raster.
    """
    for d in ("detections", "depth", "calib"):
        (root / d).mkdir(parents=True, exist_ok=True)
    cols, rows = np.arange(RASTER_W), np.arange(RASTER_H)
    images = {}
    for i in range(2):
        image = f"{i:06d}"
        depth = 6.0 + 0.04 * cols[None, :] + 0.025 * rows[:, None] + 1.5 * i
        depth[:, :8] = np.nan
        depth[::7, ::5] = -1.0
        write_depth(depth, root / "depth" / f"{image}.dpr")
        fx = 610.25 + 37.5 * i
        write_calib(root / "calib" / f"{image}.txt", fx, fx * 1.0125, 158.5 + 3.25 * i, 121.75 - 2.5 * i)
        boxes = [
            (CLASSES[k % 3], 9.5 + 31.7 * k + 4.1 * i, 40.3 + 11.9 * (k % 4), 0.15 + 0.09 * k, -3.0 + 0.7 * k)
            for k in range(8)
        ]
        boxes += [
            (CLASSES[0], 9.5 + 4.1 * i, 40.3, 0.12, 0.25),  # twin of box 0
            (CLASSES[1], 90.0, 45.0, 0.93, 1.5),  # covers box 2's center
            (CLASSES[2], 150.2, 60.6, 0.07, -0.5),  # below the threshold
            ("Unicorn", 200.4, 30.2, 0.66, 0.0),  # no prior
            (CLASSES[0], -50.0, 100.0, 0.55, 2.0),  # centered off the raster
        ]
        images[image] = [
            DetectionEntry(Detection2D(cls, left, top, left + 58.3, top + 71.9, round(score, 2)), yaw)
            for cls, left, top, score, yaw in boxes
        ]
    write_detections(images, root / "detections" / "scene.jsonl")
    return sorted(images)


def _label_line(cls, truncated, occluded, left, top, right, bottom, h, w, l, x, y, z, yaw, score=None):
    line = (
        f"{cls} {truncated:.2f} {occluded} 0.00 {left:.2f} {top:.2f} {right:.2f} {bottom:.2f} "
        f"{h:.2f} {w:.2f} {l:.2f} {x:.2f} {y:.2f} {z:.2f} {yaw:.2f}"
    )
    return line if score is None else f"{line} {score:.2f}"


def build_eval_scene(root):
    """Create gt/ and pred/ label dirs under `root` by arithmetic alone, with
    no RNG and no mono3dkit writer.  Returns (gt_dir, pred_dir).

    Each of three images has seven rotated Cars whose 2D heights, occlusion
    and truncation spread them over the difficulty rows, plus a Pedestrian.
    The predictions are shifted, turned and resized copies (one box is
    missed), a far-away false positive and a half-overlapping duplicate.
    """
    gt_dir, pred_dir = root / "gt", root / "pred"
    gt_dir.mkdir(parents=True)
    pred_dir.mkdir(parents=True)
    heights = (52.0, 33.0, 27.0, 21.0)
    for i in range(3):
        gts, preds = [], []
        for k in range(7):
            x, z = -8.0 + 2.7 * k + 0.3 * i, 12.0 + 4.5 * k + 1.1 * i
            h, w, l = 1.5 + 0.03 * k, 1.6 + 0.02 * k, 3.9 + 0.05 * k
            y, yaw = 1.6 + 0.05 * i, -1.4 + 0.45 * k + 0.2 * i
            left, top = 100.0 + 60.0 * k, 150.0 - 3.0 * i
            bottom = top + heights[(k + i) % 4]
            truncated, occluded = (0.0, 0.2, 0.4)[(k + 2 * i) % 3], (k + i) % 3
            gts.append(_label_line("Car", truncated, occluded, left, top, left + 70.0, bottom, h, w, l, x, y, z, yaw))
            if k == 5:
                continue
            dx, dz = 0.08 * ((k + i) % 3) - 0.08, 0.25 * ((2 * k + i) % 4) - 0.3
            dy, dyaw = 0.06 * ((k + 2 * i) % 3 - 1), 0.06 * ((k + i) % 5 - 2)
            grow, score = 1.0 + 0.04 * ((k + 2 * i) % 3), 0.95 - 0.07 * k - 0.02 * i
            preds.append(_label_line("Car", 0.0, 0, left, top, left + 70.0, bottom, h * (1.0 + 0.05 * (k % 2)), w,
                                     l * grow, x + dx, y + dy, z + dz, yaw + dyaw, score))
        gts.append(_label_line("Pedestrian", 0.0, 0, 40.0, 120.0, 60.0, 180.0, 1.7, 0.6, 0.8, 3.0, 1.6, 9.0, 0.3))
        preds.append(_label_line("Car", 0.0, 0, 500.0, 140.0, 560.0, 190.0, 1.5, 1.6, 3.9,
                                 14.0 - 3.0 * i, 1.6, 60.0, 0.1 * i, 0.88))
        preds.append(_label_line("Car", 0.0, 0, 160.0, 150.0, 230.0, 190.0, 1.53, 1.62, 3.95,
                                 -4.1 + 0.3 * i, 1.6 + 0.05 * i, 17.5 + 1.1 * i, -0.95 + 0.2 * i, 0.51))
        (gt_dir / f"{i:06d}.txt").write_text("\n".join(gts) + "\n")
        (pred_dir / f"{i:06d}.txt").write_text("\n".join(preds) + "\n")
    return gt_dir, pred_dir


KITTI_P2 = (721.5377, 721.5377, 609.5593, 172.854)  # fx, fy, cx, cy
KITTI_W, KITTI_H = 1242, 375
CAR_W, CAR_L, CAR_H = 1.63, 3.88, 1.53  # the default Car prior
ROAD_Y = 1.65  # camera height above the road: every Car stands at y = 1.65


def _car_bbox(x, z, yaw):
    """The projected corners of the Car standing at (x, ROAD_Y, z), clipped to
    the image.  At yaw 0 its length lies along camera X, as in eval3d."""
    fx, fy, cx, cy = KITTI_P2
    c, s = np.cos(yaw), np.sin(yaw)
    lx = np.array([1, 1, -1, -1, 1, 1, -1, -1]) * (CAR_L / 2.0)
    lz = np.array([1, -1, -1, 1, 1, -1, -1, 1]) * (CAR_W / 2.0)
    ys = ROAD_Y - np.array([0, 0, 0, 0, 1, 1, 1, 1]) * CAR_H
    xs, zs = x + lx * c + lz * s, z - lx * s + lz * c
    u, v = fx * xs / zs + cx, fy * ys / zs + cy
    left, top = max(float(u.min()), 0.0), max(float(v.min()), 0.0)
    return left, top, min(float(u.max()), KITTI_W - 1.0), min(float(v.max()), KITTI_H - 1.0)


def build_truth_scene(root, n_images=3):
    """Create detections/, depth/, calib/ and truth/ dirs under `root` by
    arithmetic alone, with no RNG.  Returns the image ids.

    Each image holds eight Cars of the prior size standing on the road, 10 to
    50 m away and spread over eight lateral positions, so that nearer Cars
    hide parts of farther ones.  A detection is a Car's projected corners
    clipped to the image, with yaw = rotation_y and a score of its own.  The
    raster is 80 m, with each 2D box painted flat at its center depth, far to
    near.  truth/ holds the Cars as KITTI labels in the source camera, with
    truncated and occluded 0.
    """
    for d in ("detections", "depth", "calib", "truth"):
        (root / d).mkdir(parents=True, exist_ok=True)
    images = {}
    for i in range(n_images):
        image = f"{i:06d}"
        cars = []  # (x, z, yaw, bbox, score)
        for k in range(8):
            x, z, yaw = -9.0 + 2.6 * ((3 * k + i) % 8), 10.0 + 5.5 * k + 1.3 * i, -1.5 + 0.41 * k + 0.23 * i
            cars.append((x, z, yaw, _car_bbox(x, z, yaw), round(0.95 - 0.1 * k - 0.02 * i, 2)))
        depth = np.full((KITTI_H, KITTI_W), 80.0)
        for _, z, _, (left, top, right, bottom), _ in sorted(cars, key=lambda car: -car[1]):
            depth[int(np.floor(top)) : int(np.ceil(bottom)) + 1, int(np.floor(left)) : int(np.ceil(right)) + 1] = z
        write_depth(depth, root / "depth" / f"{image}.dpr")
        write_calib(root / "calib" / f"{image}.txt", *KITTI_P2)
        images[image] = [DetectionEntry(Detection2D("Car", *bbox, score), yaw) for _, _, yaw, bbox, score in cars]
        truth = [
            _label_line("Car", 0.0, 0, *bbox, CAR_H, CAR_W, CAR_L, x, ROAD_Y, z, yaw)
            for x, z, yaw, bbox, _ in cars
        ]
        (root / "truth" / f"{image}.txt").write_text("\n".join(truth) + "\n")
    write_detections(images, root / "detections" / "scene.jsonl")
    return sorted(images)
