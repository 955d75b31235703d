"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configurable."""

import math
import time

import numpy as np

import fixtures
import oracles
from mono3dkit import geometry, kernels
from mono3dkit.cli import main
from mono3dkit.config import PipelineConfig
from mono3dkit.eval3d import MatchConfig, ap_r40, bev_iou, iou3d
from mono3dkit.geometry import CameraIntrinsics, VirtualCameraSpec
from mono3dkit.kernels import BinSpec, GaussianDepth, bin_centers, depth_kl, diversity_loss, outlier_filter
from mono3dkit.pseudolabel import (
    Box3D,
    ClassPrior,
    Detection2D,
    DepthRaster,
    DimensionPrior,
    generate_pseudo_labels,
)


def report(number, name, ok, detail=""):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {number:02d} failed: {name} {detail}"


def close_rel(a, b, rel):
    return np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


def test_criterion_01_virtual_round_trip():
    rng = np.random.default_rng(101)
    total = 0
    worst_ok = True
    start = time.perf_counter()
    for _ in range(100):
        width = int(rng.integers(400, 2000))
        height = int(rng.integers(300, 1200))
        intr = CameraIntrinsics(
            fx=float(rng.uniform(300, 1500)),
            fy=float(rng.uniform(300, 1500)),
            cx=float(rng.uniform(0.3, 0.7)) * width,
            cy=float(rng.uniform(0.3, 0.7)) * height,
            width=width,
            height=height,
        )
        spec = VirtualCameraSpec(
            focal=float(rng.uniform(300, 1500)),
            width=int(rng.integers(400, 2000)),
            height=int(rng.integers(300, 1200)),
        )
        u = rng.uniform(0, width, size=1000)
        v = rng.uniform(0, height, size=1000)
        z = rng.uniform(0.1, 100.0, size=1000)
        total += u.size
        p = geometry.from_virtual(*geometry.to_virtual(u, v, z, intr, spec), intr, spec)
        q = geometry.backproject(u, v, z, intr)
        worst_ok &= bool(
            close_rel(p.x, q.x, 1e-9) and close_rel(p.y, q.y, 1e-9) and close_rel(p.z, q.z, 1e-9)
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "virtual-space round trip",
        worst_ok and total == 100_000 and elapsed < 1.0,
        f"({total} tuples, {elapsed:.3f}s)",
    )


def test_criterion_02_gradient_suite():
    start = time.perf_counter()
    results = kernels.run_gradient_suite(seed=0, points=100)
    elapsed = time.perf_counter() - start
    required = {
        "query_gate",
        "diversity_loss",
        "bin_centers",
        "depth_kl",
        "dice_loss",
        "bce_loss",
        "consistency_loss",
        "l2_reg",
    }
    ok = required <= set(results) and all(err < 1e-4 for err in results.values()) and elapsed < 10.0
    worst = max(results.values())
    report(2, "gradient suite", ok, f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_diversity_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        b = int(rng.integers(1, 5))
        q = int(rng.integers(2, 17))
        d = int(rng.integers(2, 33))
        queries = rng.normal(size=(b, q, d)) + rng.uniform(0.5, 2.0)
        fast = diversity_loss(queries).value
        slow = oracles.brute_force_diversity(queries)
        worst = max(worst, abs(fast - slow) / max(abs(fast), abs(slow)))
    report(3, "diversity-loss oracle", worst <= 1e-10, f"(worst rel diff {worst:.2e})")


def test_criterion_04_bin_monotonicity():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        spec = BinSpec(delta=rng.uniform(-5, 5, size=n), depth_min=2.0, depth_max=46.8)
        centers, _ = bin_centers(spec)
        ok &= bool(np.all(np.diff(centers) > 0))
        ok &= abs(centers[-1] - 46.8) <= 1e-9 * 46.8
        if not ok:
            break
    report(4, "bin monotonicity and range pinning", ok)


def test_criterion_05_depth_kl_zero_point():
    zero = depth_kl(GaussianDepth(mean=13.7, std=0.25, target=13.7, target_std=0.25)).value
    rng = np.random.default_rng(105)
    minimum = math.inf
    for _ in range(100_000):
        value = depth_kl(
            GaussianDepth(
                mean=float(rng.uniform(0.1, 60)),
                std=float(rng.uniform(1e-3, 5)),
                target=float(rng.uniform(0.1, 60)),
                target_std=float(rng.uniform(1e-3, 5)),
            )
        ).value
        minimum = min(minimum, value)
    ok = abs(zero) < 1e-12 and minimum >= 0.0
    report(5, "depth-KL zero point and nonnegativity", ok, f"(zero {zero:.1e}, min {minimum:.2e})")


def test_criterion_06_rotated_iou_oracle():
    start = time.perf_counter()
    ws = oracles.McWorkspace(n=1_000_000, seed=20240917)
    rng = np.random.default_rng(106)
    worst_bev = worst_3d = 0.0
    for _ in range(1000):
        a = Box3D(
            "Car",
            float(rng.uniform(-2, 2)),
            float(rng.uniform(0, 2)),
            float(rng.uniform(5, 8)),
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(0.5, 3)),
            float(rng.uniform(0.5, 3)),
            float(rng.uniform(-math.pi, math.pi)),
            1.0,
        )
        b = Box3D(
            "Car",
            a.x + float(rng.uniform(-2, 2)),
            a.y + float(rng.uniform(-0.5, 0.5)),
            max(0.5, a.z + float(rng.uniform(-2, 2))),
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(0.5, 3)),
            float(rng.uniform(0.5, 3)),
            float(rng.uniform(-math.pi, math.pi)),
            1.0,
        )
        mc_bev, mc_3d = ws.ious(a, b)
        worst_bev = max(worst_bev, abs(bev_iou(a, b) - mc_bev))
        worst_3d = max(worst_3d, abs(iou3d(a, b) - mc_3d))

    # concentric unit squares, one rotated 45 degrees: the octagonal overlap
    # has area 2(sqrt(2) - 1), giving IoU = sqrt(2)/2; the Monte-Carlo
    # oracle independently reproduces the closed form
    square = Box3D("Car", 0.0, 0.0, 10.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    rotated = Box3D("Car", 0.0, 0.0, 10.0, 1.0, 1.0, 1.0, math.pi / 4, 1.0)
    expected = 2.0 * (math.sqrt(2.0) - 1.0) / (2.0 - 2.0 * (math.sqrt(2.0) - 1.0))
    value = bev_iou(square, rotated)
    diag_ok = abs(value - expected) < 1e-3 and abs(value - ws.bev_iou(square, rotated)) < 1e-3

    elapsed = time.perf_counter() - start
    ok = worst_bev < 1e-2 and worst_3d < 1e-2 and diag_ok and elapsed < 60.0
    report(
        6,
        "rotated-IoU Monte-Carlo oracle",
        ok,
        f"(bev {worst_bev:.1e}, 3d {worst_3d:.1e}, 45deg {value:.6f}, {elapsed:.1f}s)",
    )


def test_criterion_07_ap_oracle():
    cfg = MatchConfig(iou_threshold=0.5, metric="bev")
    rng = np.random.default_rng(107)
    exact = True
    for _ in range(50):
        n_gt = int(rng.integers(1, 5))
        gts = [
            Box3D("Car", 4.0 * i, 1.0, float(rng.uniform(5, 9)), 1.5,
                  float(rng.uniform(0.8, 2.0)), float(rng.uniform(0.8, 2.0)),
                  float(rng.uniform(-math.pi, math.pi)), 1.0)
            for i in range(n_gt)
        ]
        preds = []
        for _ in range(int(rng.integers(0, 9 - n_gt))):
            base = gts[int(rng.integers(0, n_gt))]
            preds.append(
                Box3D("Car", base.x + float(rng.uniform(-1.5, 1.5)), base.y,
                      base.z + float(rng.uniform(-1.5, 1.5)), base.h, base.w, base.l,
                      base.yaw, float(rng.uniform(0, 1)))
            )
        got = ap_r40(preds, gts, cfg).ap
        want = oracles.brute_force_ap_r40(preds, gts, bev_iou, 0.5)
        exact &= got == want

    gts = [Box3D("Car", 3.0 * i, 1.0, 8.0, 1.5, 1.6, 3.9, 0.2, 1.0) for i in range(4)]
    perfect = ap_r40(gts, gts, cfg).ap == 100.0
    empty = ap_r40([], gts, cfg).ap == 0.0
    report(7, "AP|R40 brute-force oracle", exact and perfect and empty)


def test_criterion_08_pseudo_label_consistency():
    intr = CameraIntrinsics(fx=700.0, fy=700.0, cx=320.0, cy=240.0, width=640, height=480)
    spec = VirtualCameraSpec(focal=700.0, width=640, height=480)
    prior = DimensionPrior(classes={"Pedestrian": ClassPrior(width=0.66, length=0.84, height=1.76)})
    depth = DepthRaster.from_values(np.full((480, 640), 9.0))
    rng = np.random.default_rng(108)
    dets, yaws = [], []
    for _ in range(12):
        left = float(rng.uniform(5, 520))
        top = float(rng.uniform(5, 360))
        dets.append(
            Detection2D("Pedestrian", left, top, left + float(rng.uniform(20, 110)),
                        top + float(rng.uniform(30, 110)), float(rng.uniform(0.2, 1.0)))
        )
        yaws.append(float(rng.uniform(-math.pi, math.pi)))
    result = generate_pseudo_labels(dets, depth, yaws, intr, spec, prior)
    vintr = geometry.make_virtual_intrinsics(intr, spec)
    ok = len(result.boxes) == len(dets)
    for entry in result.labels:
        u, v = geometry.project(entry.box.center_point(), vintr)
        ok &= abs(u - entry.point_u) <= 0.5 and abs(v - entry.point_v) <= 0.5
        lhs = entry.box.h * intr.fy
        rhs = (entry.source.bottom - entry.source.top) * 9.0
        ok &= abs(lhs - rhs) <= 1e-9 * abs(rhs)
    report(8, "pseudo-label reprojection and height law", ok)


def test_criterion_09_outlier_filter():
    keep_all, _ = outlier_filter([2.5] * 9, k=2.0)
    keep, tau = outlier_filter([1.0, 1.0, 1.0, 1.0, 100.0], k=2.0)
    import inspect

    defaults_ok = (
        inspect.signature(outlier_filter).parameters["k"].default == 2.0
        and PipelineConfig().outlier_k == 2.0
        and PipelineConfig().score_threshold == 0.1
        and inspect.signature(generate_pseudo_labels).parameters["score_threshold"].default == 0.1
    )
    ok = keep_all.all() and list(keep) == [True, True, True, True, False] and defaults_ok
    report(9, "outlier filter fixture and shipped defaults", ok, f"(tau {tau:.1f})")


def test_criterion_10_default_hyperparameters():
    import inspect

    sig = inspect.signature(kernels.region_loss)
    cfg = PipelineConfig()
    ok = (
        sig.parameters["weight_dice"].default == 0.7
        and sig.parameters["weight_bce"].default == 0.3
        and cfg.lambda_dice == 0.7
        and cfg.lambda_bce == 0.3
        and cfg.virtual_focal == 900.0
        and cfg.virtual_width == 1274
        and cfg.virtual_height == 644
    )
    report(10, "shipped loss weights and virtual camera", ok)


def test_criterion_11_end_to_end_determinism(tmp_path):
    fixtures.build_scene(tmp_path, n_images=20, seed=1101)
    outputs = []
    for run, workers in (("r1", "1"), ("r2", "1"), ("w4", "4"), ("w8", "8")):
        out = tmp_path / run
        code = main(
            [
                "pseudolabel",
                "--detections", str(tmp_path / "detections"),
                "--depth", str(tmp_path / "depth"),
                "--calib", str(tmp_path / "calib"),
                "--out", str(out),
                "--workers", workers,
            ]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.txt"))})
    ok = len(outputs[0]) == 20 and all(o == outputs[0] for o in outputs[1:])
    report(11, "end-to-end determinism across runs and worker counts", ok)
