import math

import numpy as np
import pytest

import oracles
from mono3dkit import eval3d
from mono3dkit.errors import EmptyInputError
from mono3dkit.eval3d import (
    EvalFrame,
    MatchConfig,
    ap_r40,
    ap_r40_frames,
    bev_iou,
    box2d_iou,
    height_histogram,
    iou3d,
    iou_matrix,
    matches_difficulty,
)
from mono3dkit.pseudolabel import Box3D


def box(x=0.0, y=1.0, z=10.0, h=1.5, w=1.0, l=1.0, yaw=0.0, score=1.0, cls="Car"):
    return Box3D(cls, x, y, z, h, w, l, yaw, score)


def random_box(rng, cls="Car"):
    return box(
        x=float(rng.uniform(-3, 3)),
        y=float(rng.uniform(0, 2)),
        z=float(rng.uniform(5, 9)),
        h=float(rng.uniform(0.5, 2.5)),
        w=float(rng.uniform(0.5, 3.0)),
        l=float(rng.uniform(0.5, 3.0)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
        score=float(rng.uniform(0, 1)),
        cls=cls,
    )


class TestMatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=0.0)
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=0.5, metric="volumetric")


class TestBevIou:
    def test_identical_boxes(self):
        a = box(yaw=0.7)
        assert bev_iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert bev_iou(box(x=0.0), box(x=100.0, z=110.0)) == 0.0

    def test_rotated_unit_squares_about_shared_center(self):
        # concentric unit squares, one at 45 degrees: the intersection is a
        # regular octagon of area 2(sqrt(2)-1), so IoU = sqrt(2)/2; the
        # Monte-Carlo oracle below confirms the closed form
        a = box(w=1.0, l=1.0, yaw=0.0)
        b = box(w=1.0, l=1.0, yaw=math.pi / 4)
        expected = 2.0 * (math.sqrt(2.0) - 1.0) / (2.0 - 2.0 * (math.sqrt(2.0) - 1.0))
        assert expected == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
        assert bev_iou(a, b) == pytest.approx(expected, rel=1e-9)
        ws = oracles.McWorkspace(n=1_000_000, seed=5)
        assert abs(bev_iou(a, b) - ws.bev_iou(a, b)) < 1e-3

    def test_far_apart_boxes_with_nearly_collinear_edges(self):
        # b's near edge lies within the clip tolerance of the line through
        # a's far edge, almost parallel to it, with b 10 m away along that
        # line; clipping must not extrapolate a sliver along the line
        a = box(x=0.0, z=10.0, w=2.0, l=2.0)
        for offset in (4.9e-10, 5e-10, 5.1e-10):
            for yaw in (1e-12, 1e-11, 3e-11):
                b = box(x=-10.0, z=12.0 + offset, w=2.0, l=2.0, yaw=yaw)
                assert bev_iou(b, a) == 0.0
                assert bev_iou(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-12)

    def test_yaw_periodicity(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            base = bev_iou(a, b)
            for shift in (0.5, math.pi / 3, math.pi):
                # rotate both boxes about the vertical axis through their
                # common midpoint (keeps depth positive)
                cx = (a.x + b.x) / 2.0
                cz = (a.z + b.z) / 2.0
                c, s = math.cos(shift), math.sin(shift)

                def rot(bx):
                    dx, dz = bx.x - cx, bx.z - cz
                    return Box3D(
                        bx.class_id,
                        cx + dx * c + dz * s,
                        bx.y,
                        cz - dx * s + dz * c,
                        bx.h,
                        bx.w,
                        bx.l,
                        bx.yaw + shift,
                        bx.score,
                    )

                assert bev_iou(rot(a), rot(b)) == pytest.approx(base, abs=1e-9)

    def test_against_monte_carlo(self):
        ws = oracles.McWorkspace(n=200_000, seed=6)
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = random_box(rng)
            b = Box3D(
                "Car", a.x + float(rng.uniform(-2, 2)), a.y, a.z + float(rng.uniform(-2, 2)),
                a.h, float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)),
                float(rng.uniform(-math.pi, math.pi)), 1.0,
            )
            assert abs(bev_iou(a, b) - ws.bev_iou(a, b)) < 0.01


class TestIou3d:
    def test_identical_boxes(self):
        a = box(yaw=-0.3)
        assert iou3d(a, a) == 1.0

    def test_half_height_offset(self):
        a = box(h=1.0, y=0.0)
        b = box(h=1.0, y=0.5)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_no_vertical_overlap(self):
        assert iou3d(box(h=1.0, y=0.0), box(h=1.0, y=5.0)) == 0.0

    def test_equals_bev_iou_for_identical_vertical_extent(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            b = Box3D(b.class_id, b.x, a.y, b.z, a.h, b.w, b.l, b.yaw, b.score)
            assert iou3d(a, b) == pytest.approx(bev_iou(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            assert iou3d(a, b) == pytest.approx(iou3d(b, a), abs=1e-12)

    def test_against_monte_carlo(self):
        ws = oracles.McWorkspace(n=200_000, seed=7)
        rng = np.random.default_rng(36)
        for _ in range(20):
            a = random_box(rng)
            b = Box3D(
                "Car", a.x + float(rng.uniform(-2, 2)), a.y + float(rng.uniform(-0.5, 0.5)),
                a.z + float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.5)),
                float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)),
                float(rng.uniform(-math.pi, math.pi)), 1.0,
            )
            assert abs(iou3d(a, b) - ws.iou3d(a, b)) < 0.01


class TestBox2dIou:
    def test_identical(self):
        assert box2d_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert box2d_iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        assert box2d_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)


class TestIouMatrix:
    """The prefiltered matrix equals the scalar IoU of every pair, bit for bit."""

    @staticmethod
    def assert_equals_scalar(preds, gts, pred_bboxes=None, gt_bboxes=None):
        frame = EvalFrame(preds=preds, gts=gts, pred_bboxes=pred_bboxes, gt_bboxes=gt_bboxes)
        shape = (len(preds), len(gts))
        for metric, scalar, a, b in (
            ("3d", iou3d, preds, gts),
            ("bev", bev_iou, preds, gts),
            ("bbox2d", box2d_iou, pred_bboxes, gt_bboxes),
        ):
            if a is None:
                continue
            expected = np.array([[scalar(p, g) for g in b] for p in a], dtype=float).reshape(shape)
            assert np.array_equal(iou_matrix(frame, metric), expected), metric

    @staticmethod
    def diagonal_pair(l, w, scale, gap, x=0.0, z=10.0):
        # two axis-aligned boxes of one shape whose corners touch along
        # their shared diagonal when gap is 0: their centers lie exactly
        # r_a + r_b + gap apart
        a = box(x=x, z=z, l=l, w=w)
        b = box(l=l * scale, w=w * scale)
        ra, rb = 0.5 * math.hypot(a.l, a.w), 0.5 * math.hypot(b.l, b.w)
        reach = ra + rb + gap
        return a, box(x=x + a.l / (2.0 * ra) * reach, z=z + a.w / (2.0 * ra) * reach, l=b.l, w=b.w)

    @staticmethod
    def scene(rng, n, spread):
        boxes = [
            box(
                x=float(rng.uniform(-spread, spread)),
                y=float(rng.uniform(0, 2)),
                z=float(rng.uniform(5, 5 + 2 * spread)),
                h=float(rng.uniform(0.3, 2.5)),
                w=float(rng.uniform(0.05, 3.0)),
                l=float(rng.uniform(0.05, 5.0)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
                score=float(rng.uniform(0, 1)),
            )
            for _ in range(n)
        ]
        left, top = rng.uniform(0, 200, size=(2, n))
        right, bottom = left + rng.uniform(1, 80, n), top + rng.uniform(1, 80, n)
        return boxes, np.stack([left, top, right, bottom], axis=1)

    def test_random_scenes(self):
        rng = np.random.default_rng(41)
        for spread in (0.5, 2.0, 8.0, 30.0):
            for _ in range(10):
                preds, pred_bboxes = self.scene(rng, int(rng.integers(1, 12)), spread)
                gts, gt_bboxes = self.scene(rng, int(rng.integers(1, 12)), spread)
                self.assert_equals_scalar(preds, gts, pred_bboxes, gt_bboxes)

    def test_edge_cases(self):
        base = box(x=1.0, z=12.0, w=1.6, l=3.9, yaw=0.4)
        cases = [
            ("identical", base, base),
            ("nested", base, box(x=1.2, z=12.1, h=1.0, w=0.5, l=1.0, yaw=0.9)),
            ("edge-touching", box(x=0.0, l=2.0, w=1.0), box(x=2.0, l=2.0, w=1.0)),
            ("corner-touching", box(x=0.0, z=10.0, l=2.0, w=1.0), box(x=2.0, z=11.0, l=2.0, w=1.0)),
            ("stacked", box(y=1.0, h=1.0), box(y=2.5, h=1.5)),
            ("vertical gap", box(y=1.0, h=1.0), box(y=3.0, h=1.0)),
            ("far apart, nearly collinear edges",
             box(x=0.0, z=10.0, w=2.0, l=2.0), box(x=-10.0, z=12.0 + 5e-10, w=2.0, l=2.0, yaw=1e-11)),
        ]
        for gap in (0.0, 1e-9, -1e-9, -1e-4):
            cases.append((f"squares {gap:+g} apart", *self.diagonal_pair(2.0, 2.0, 1.0, gap)))
            cases.append((f"rectangles {gap:+g} apart", *self.diagonal_pair(4.0, 1.5, 0.7, gap)))
            cases.append(
                (f"far rectangles {gap:+g} apart", *self.diagonal_pair(4.0, 1.5, 0.7, gap, x=1e6, z=1e6))
            )
        for name, a, b in cases:
            for preds, gts in (([a], [b]), ([b], [a]), ([a, b], [b, a])):
                try:
                    self.assert_equals_scalar(preds, gts)
                except AssertionError as exc:
                    raise AssertionError(f"{name}: {exc}") from None

    def test_empty_frames(self):
        assert iou_matrix(EvalFrame(preds=[], gts=[box()]), "3d").shape == (0, 1)
        assert iou_matrix(EvalFrame(preds=[box()], gts=[]), "bev").shape == (1, 0)

    def test_shared_matrices_checked_against_frames(self):
        frame = EvalFrame(preds=[box()], gts=[box(), box(x=5.0)])
        cfg = MatchConfig(iou_threshold=0.5, metric="bev")
        shared = [iou_matrix(frame, "bev")]
        assert ap_r40_frames([frame], cfg, shared).ap == ap_r40_frames([frame], cfg).ap
        with pytest.raises(ValueError):
            ap_r40_frames([frame, frame], cfg, shared)
        with pytest.raises(ValueError):
            ap_r40_frames([frame], cfg, [shared[0].T])


class TestApR40:
    CFG = MatchConfig(iou_threshold=0.5, metric="bev")

    def test_perfect_predictions(self):
        gts = [box(x=3.0 * i) for i in range(4)]
        preds = [Box3D(b.class_id, b.x, b.y, b.z, b.h, b.w, b.l, b.yaw, 1.0) for b in gts]
        result = ap_r40(preds, gts, self.CFG)
        assert result.ap == 100.0
        assert result.matched == 4

    def test_no_predictions(self):
        assert ap_r40([], [box()], self.CFG).ap == 0.0

    def test_empty_everything_flagged_perfect(self):
        result = ap_r40([], [], self.CFG)
        assert result.ap == 100.0
        assert "empty-ground-truth-and-predictions" in result.notes

    def test_predictions_without_ground_truth(self):
        result = ap_r40([box(score=0.9)], [], self.CFG)
        assert result.ap == 0.0
        assert "empty-ground-truth" in result.notes

    def test_hand_computed_false_positive_case(self):
        gts = [box(x=0.0), box(x=10.0), box(x=20.0)]
        preds = [
            box(x=0.0, score=0.9),
            box(x=50.0, score=0.8),  # false positive ranked second
            box(x=10.0, score=0.7),
            box(x=20.0, score=0.6),
        ]
        result = ap_r40(preds, gts, self.CFG)
        # PR prefixes: (1, 1/3), (1/2, 1/3), (2/3, 2/3), (3/4, 1);
        # 13 recall points at precision 1, the other 27 at 3/4
        assert result.ap == pytest.approx((13 * 1.0 + 27 * 0.75) / 40 * 100.0, rel=1e-12)
        oracle = oracles.brute_force_ap_r40(preds, gts, bev_iou, 0.5)
        assert result.ap == oracle

    def test_matches_brute_force_on_random_scenarios(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n_gt = int(rng.integers(1, 5))
            gts = [box(x=4.0 * i, z=float(rng.uniform(5, 9))) for i in range(n_gt)]
            preds = []
            for _ in range(int(rng.integers(0, 9))):
                base = gts[int(rng.integers(0, n_gt))]
                preds.append(
                    Box3D(
                        "Car",
                        base.x + float(rng.uniform(-1.5, 1.5)),
                        base.y,
                        base.z + float(rng.uniform(-1.5, 1.5)),
                        base.h,
                        base.w,
                        base.l,
                        base.yaw,
                        float(rng.uniform(0, 1)),
                    )
                )
            result = ap_r40(preds, gts, self.CFG)
            oracle = oracles.brute_force_ap_r40(preds, gts, bev_iou, 0.5)
            assert result.ap == oracle

    def test_score_order_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(38)
        gts = [box(x=4.0 * i) for i in range(3)]
        preds = [
            Box3D("Car", g.x + float(rng.uniform(-1, 1)), g.y, g.z, g.h, g.w, g.l, g.yaw, s)
            for g, s in zip(gts, (0.9, 0.5, 0.2))
        ]
        base = ap_r40(preds, gts, self.CFG).ap
        squashed = [
            Box3D(p.class_id, p.x, p.y, p.z, p.h, p.w, p.l, p.yaw, p.score**3) for p in preds
        ]
        assert ap_r40(squashed, gts, self.CFG).ap == base

    def test_zero_iou_lowest_score_prediction_never_raises_ap(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            gts = [box(x=4.0 * i) for i in range(3)]
            preds = [
                Box3D("Car", g.x + float(rng.uniform(-1, 1)), g.y, g.z, g.h, g.w, g.l, g.yaw,
                      float(rng.uniform(0.3, 1.0)))
                for g in gts
            ]
            base = ap_r40(preds, gts, self.CFG).ap
            extra = preds + [box(x=500.0, score=0.01)]
            assert ap_r40(extra, gts, self.CFG).ap <= base

    def test_sharded_frames_equal_sequential(self):
        rng = np.random.default_rng(40)
        frames = []
        for _ in range(6):
            gts = [random_box(rng) for _ in range(3)]
            preds = [random_box(rng) for _ in range(4)]
            frames.append(EvalFrame(preds=preds, gts=gts))
        merged = ap_r40_frames(frames, self.CFG)
        again = ap_r40_frames(list(frames), self.CFG)
        assert merged.ap == again.ap
        # one-frame evaluation agrees with the single-frame wrapper
        single = ap_r40(frames[0].preds, frames[0].gts, self.CFG)
        assert ap_r40_frames(frames[:1], self.CFG).ap == single.ap

    def test_interpolation_equals_pointwise_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            frames = []
            for _ in range(3):
                n_gt = int(rng.integers(1, 5))
                frames.append(
                    EvalFrame(
                        preds=[random_box(rng) for _ in range(int(rng.integers(0, 8)))],
                        gts=[random_box(rng) for _ in range(n_gt)],
                        gt_ignored=rng.random(n_gt) < 0.3,
                    )
                )
            result = ap_r40_frames(frames, MatchConfig(iou_threshold=0.1, metric="bev"))
            expected = []
            for r in result.recall_grid:
                best = 0.0
                for recall, precision in result.curve:
                    if recall >= r and precision > best:
                        best = precision
                expected.append(best)
            assert result.interpolated_precision == expected
            assert result.ap == 100.0 * sum(expected) / 40

    def test_mixed_classes_rejected(self):
        with pytest.raises(ValueError):
            ap_r40([box(cls="Car")], [box(cls="Pedestrian")], self.CFG)

    def test_ignored_ground_truth_semantics(self):
        gts = [box(x=0.0), box(x=10.0)]
        preds = [box(x=0.0, score=0.9), box(x=10.0, score=0.8)]
        # second ground truth ignored: its prediction must vanish from the
        # ranking rather than count as a false positive
        result = ap_r40(preds, gts, self.CFG, gt_ignored=np.array([False, True]))
        assert result.ap == 100.0
        assert result.num_gt == 1
        assert result.ignored_predictions == 1

    def test_bbox2d_metric(self):
        gts = [box(x=0.0), box(x=10.0)]
        preds = [box(x=0.0, score=0.9), box(x=10.0, score=0.8)]
        gt_bboxes = [(0, 0, 10, 10), (20, 0, 30, 10)]
        cfg = MatchConfig(iou_threshold=0.5, metric="bbox2d")
        result = ap_r40(preds, gts, cfg, pred_bboxes=gt_bboxes, gt_bboxes=gt_bboxes)
        assert result.ap == 100.0
        with pytest.raises(ValueError):
            ap_r40(preds, gts, cfg)


class TestFloatGeometry:
    """The clipping loop and the area run on Python floats: numpy scalars
    would cost about ten times as much per operation, and a BLAS dot
    product gives bits that depend on the kernel and the memory layout."""

    @pytest.mark.parametrize("scalar", [float, np.float64, np.float32])
    def test_bev_corners_are_python_floats(self, scalar):
        b = Box3D("Car", *(scalar(v) for v in (1.25, 1.5, 12.0, 1.5, 1.6, 3.9, 0.7)))
        corners = eval3d._bev_corners(b)
        assert len(corners) == 4
        assert all(type(v) is float for corner in corners for v in corner)

    def test_polygon_area_same_bits_for_every_point_layout(self):
        # A dot product over contiguous coordinate columns (column-major
        # points) and over strided ones gave different last bits in about
        # half of these polygons.
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(3, 9))
            padded = np.zeros((n, 3))
            padded[:, 0] = rng.uniform(-40.0, 40.0, n)
            padded[:, 2] = rng.uniform(0.0, 80.0, n)
            strided = padded[:, ::2]
            row_major = np.ascontiguousarray(strided)
            layouts = ([tuple(p) for p in row_major.tolist()], row_major, np.asfortranarray(strided), strided)
            assert len({eval3d._polygon_area(points).hex() for points in layouts}) == 1

    def test_match_frame_flags_same_for_list_and_bool_array_ignored(self):
        rng = np.random.default_rng(13)
        cfg = MatchConfig(iou_threshold=0.5)
        for _ in range(50):
            gts = [random_box(rng) for _ in range(int(rng.integers(1, 7)))]
            preds = [random_box(rng) for _ in range(int(rng.integers(0, 7)))]
            ignored = (rng.random(len(gts)) < 0.4).tolist()
            results = []
            for gt_ignored in (ignored, np.array(ignored, dtype=bool)):
                frame = EvalFrame(preds=preds, gts=gts, gt_ignored=gt_ignored)
                results.append(eval3d._match_frame(frame, cfg, iou_matrix(frame, cfg.metric)))
            assert results[0] == results[1]
            assert results[0][1] == ignored.count(False)


class TestDifficulty:
    def test_easy_gate(self):
        assert matches_difficulty(45.0, 0, 0.1, 0)
        assert not matches_difficulty(39.0, 0, 0.1, 0)
        assert not matches_difficulty(45.0, 1, 0.1, 0)
        assert not matches_difficulty(45.0, 0, 0.2, 0)

    def test_moderate_and_hard_gates(self):
        assert matches_difficulty(30.0, 1, 0.3, 1)
        assert not matches_difficulty(30.0, 2, 0.3, 1)
        assert matches_difficulty(30.0, 2, 0.5, 2)
        assert not matches_difficulty(24.0, 2, 0.5, 2)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            matches_difficulty(40.0, 0, 0.1, 3)


class TestHeightHistogram:
    def test_constant_heights(self):
        stats = height_histogram([box(h=1.7) for _ in range(5)], bin_width=0.1)
        assert stats.mean == pytest.approx(1.7)
        assert stats.variance == 0.0
        assert stats.counts.sum() == 5
        assert np.count_nonzero(stats.counts) == 1

    def test_two_point_statistics(self):
        stats = height_histogram([box(h=1.6), box(h=1.8)], bin_width=0.1)
        assert stats.mean == pytest.approx(1.7, rel=1e-12)
        assert stats.median == pytest.approx(1.7, rel=1e-12)
        assert stats.variance == pytest.approx(0.01, rel=1e-9)

    def test_half_open_bins_reproducible(self):
        boxes = [box(h=h) for h in (1.0, 1.05, 1.1, 1.1)]
        stats = height_histogram(boxes, bin_width=0.1)
        again = height_histogram(boxes, bin_width=0.1)
        assert np.array_equal(stats.counts, again.counts)
        assert np.array_equal(stats.edges, again.edges)
        # 1.1 sits on an edge and belongs to the upper bin
        assert stats.counts.tolist() == [2, 2]

    def test_counts_equal_per_box_loop(self):
        rng = np.random.default_rng(43)
        for bin_width in (0.05, 0.1, 0.37):
            boxes = [box(h=float(h)) for h in rng.uniform(0.4, 2.6, size=200)]
            stats = height_histogram(boxes, bin_width=bin_width)
            first = math.floor(min(b.h for b in boxes) / bin_width)
            expected = [0] * len(stats.counts)
            for b in boxes:
                expected[math.floor(b.h / bin_width) - first] += 1
            assert stats.counts.tolist() == expected

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            height_histogram([], bin_width=0.1)

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            height_histogram([box()], bin_width=0.0)
