import collections
import json
import math
from dataclasses import fields

import numpy as np
import pytest

import fixtures
from mono3dkit import dataio, eval3d, kernels
from mono3dkit.cli import build_parser, main
from mono3dkit.config import PipelineConfig
from mono3dkit.dataio import read_labels, write_labels
from mono3dkit.kernels import LossReport


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.txt"))}


def run_pseudolabel(root, out, extra=()):
    return main(
        [
            "pseudolabel",
            "--detections",
            str(root / "detections"),
            "--depth",
            str(root / "depth"),
            "--calib",
            str(root / "calib"),
            "--out",
            str(out),
            *extra,
        ]
    )


# One non-default config line per PipelineConfig field.  A field missing
# here fails the guard test below, so a key that nothing reads cannot be
# added without notice.
CONFIG_KEY_CHANGES = {
    "score_threshold": "score_threshold = 0.5",
    "virtual_focal": "virtual_focal = 700.0",
    "virtual_width": "virtual_width = 1000",
    "virtual_height": "virtual_height = 500",
    "clamp_alpha": "clamp_alpha = 0.9",
    "clamp_beta": "clamp_beta = 1.1",
    "depth_window": "depth_window = 9",
    "fallback_grid": "fallback_grid = 3",
    "priors": "prior.Car = 2.0 5.0 2.0",
}


@pytest.fixture(scope="module")
def dense_scene(tmp_path_factory):
    """A scene with default-config labels in `default/`.  It is dense enough
    to have occluded box centers, so that fallback_grid is exercised."""
    root = tmp_path_factory.mktemp("dense")
    fixtures.build_scene(root, n_images=6, seed=1101, dets_per_image=(8, 14))
    assert run_pseudolabel(root, root / "default") == 0
    return root


class TestPseudolabelCommand:
    @pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)])
    def test_every_config_key_changes_the_labels(self, dense_scene, tmp_path, key):
        assert key in CONFIG_KEY_CHANGES, f"config key {key!r} has no non-default line to test it with"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONFIG_KEY_CHANGES[key] + "\n")
        out = tmp_path / "out"
        assert run_pseudolabel(dense_scene, out, extra=("--config", str(cfg))) == 0
        assert dir_bytes(out) != dir_bytes(dense_scene / "default")

    def test_produces_labels_and_summary(self, tmp_path, capsys):
        ids = fixtures.build_scene(tmp_path, n_images=4, seed=5)
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 0
        assert sorted(p.stem for p in out.glob("*.txt")) == ids
        captured = capsys.readouterr().out
        assert "[summary]" in captured
        assert "images = 4" in captured
        # effective config echoed for provenance
        assert "score_threshold = 0.1" in captured
        assert "prior.Car" in captured

    def test_deterministic_across_runs(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=4, seed=6)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_pseudolabel(tmp_path, out_a) == 0
        assert run_pseudolabel(tmp_path, out_b) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_empty_input_dir(self, tmp_path, capsys):
        for d in ("detections", "depth", "calib"):
            (tmp_path / d).mkdir()
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 0
        assert list(out.glob("*.txt")) == []
        assert "images = 0" in capsys.readouterr().out

    def test_missing_calib_names_image_and_cleans_up(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        victim = tmp_path / "calib" / "000001.txt"
        victim.unlink()
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 2
        assert "000001" in capsys.readouterr().err
        # partial outputs removed on failure
        assert list(out.glob("*.txt")) == []

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=2, seed=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score_threshold = 0.4\n")
        out = tmp_path / "out"
        code = run_pseudolabel(
            tmp_path, out, extra=("--config", str(cfg), "--score-threshold", "0.6")
        )
        assert code == 0
        assert "score_threshold = 0.6" in capsys.readouterr().out

    def test_score_threshold_filters_labels(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=3, seed=9)
        loose, strict = tmp_path / "loose", tmp_path / "strict"
        run_pseudolabel(tmp_path, loose, extra=("--score-threshold", "0.0"))
        run_pseudolabel(tmp_path, strict, extra=("--score-threshold", "0.9"))
        n_loose = sum(len(read_labels(p)) for p in loose.glob("*.txt"))
        n_strict = sum(len(read_labels(p)) for p in strict.glob("*.txt"))
        assert n_strict < n_loose

    def test_worker_counts_agree(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=6, seed=10)
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert run_pseudolabel(tmp_path, out, extra=("--workers", workers)) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "obj",
        [
            '{"class": "Car", "bbox": [null, 20, 60, 90], "score": 0.5}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": [1]}',
            '{"class": "Car", "bbox": [-Infinity, 20, 60, 90], "score": 0.5}',
            '{"class": "Car", "bbox": [10, 20, Infinity, 90], "score": 0.5}',
            '{"class": "Car", "bbox": [10, 20, 1e400, 90], "score": 0.5}',
            '{"class": "Car", "bbox": [10, 20, 1' + "0" * 400 + ', 90], "score": 0.5}',
            '{"class": "Car", "bbox": ["10", 20, 60, 90], "score": 0.5}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": "0.5"}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": true}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": NaN}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": 0.5, "yaw": NaN}',
            '{"class": "Car", "bbox": [10, 20, 60, 90], "score": 0.5, "yaw": "0.1"}',
        ],
        ids=[
            "null-edge", "list-score", "minus-inf-edge", "inf-edge", "overflow-edge", "huge-int-edge",
            "string-edge", "string-score", "bool-score", "nan-score", "nan-yaw", "string-yaw",
        ],
    )
    def test_malformed_detection_is_data_error_with_line(self, tmp_path, capsys, obj):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        path = tmp_path / "detections" / "scene.jsonl"
        header = json.dumps({"schema": dataio.DETECTION_SCHEMA, "version": dataio.DETECTION_VERSION})
        path.write_text(f'{header}\n{{"image": "000000", "detections": [{obj}]}}\n')
        assert run_pseudolabel(tmp_path, tmp_path / "out") == 2
        assert f"{path}:2:" in capsys.readouterr().err

    def test_labels_parse_back(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=2, seed=11)
        out = tmp_path / "out"
        run_pseudolabel(tmp_path, out)
        for path in out.glob("*.txt"):
            for rec in read_labels(path):
                assert rec.score is not None
                assert rec.z > 0
                assert rec.h > 0


def write_difficulty_fixture(root):
    """Three frames of Car labels whose ground truths span every difficulty gate."""

    def rec(x, z, yaw, height_px, occluded, truncated, score=None, dx=0.0, dz=0.0):
        return dataio.KittiLabelRecord(
            type="Car", truncated=truncated, occluded=occluded, alpha=0.0,
            left=100.0, top=100.0, right=160.0, bottom=100.0 + height_px,
            h=1.5, w=1.6, l=3.9, x=x + dx, y=1.6, z=z + dz, rotation_y=yaw, score=score,
        )

    # (x, z, yaw, bbox height px, occluded, truncated): easy, moderate, hard
    # and outside every gate
    frames = [
        [(-6.0, 12.0, 0.1, 60.0, 0, 0.0), (0.0, 20.0, 1.2, 30.0, 1, 0.2),
         (5.0, 30.0, -0.4, 28.0, 2, 0.45), (9.0, 15.0, 0.0, 18.0, 3, 0.8)],
        [(-3.0, 9.0, 1.57, 45.0, 0, 0.1), (3.0, 9.5, 1.5, 26.0, 2, 0.3),
         (0.5, 25.0, 0.3, 22.0, 1, 0.0)],
        [(-8.0, 18.0, -1.0, 70.0, 0, 0.05), (-5.5, 19.0, -1.1, 35.0, 1, 0.25),
         (4.0, 40.0, 0.0, 26.0, 2, 0.5), (8.0, 11.0, 0.7, 50.0, 0, 0.6)],
    ]
    # (gt index or None, dx, dz, score): near-misses, exact hits, and far
    # false positives ranked among the true positives
    preds = [
        [(0, 0.1, 0.2, 0.95), (1, 0.3, -0.2, 0.6), (2, 0.0, 0.0, 0.4), (3, 0.1, 0.1, 0.85),
         (None, 20.0, 50.0, 0.7)],
        [(0, 0.5, 0.5, 0.9), (1, 0.05, 0.0, 0.75), (2, 1.5, 0.0, 0.3), (None, -15.0, 5.0, 0.8)],
        [(0, 0.0, 0.1, 0.99), (1, 0.2, 0.3, 0.65), (1, 0.6, -0.1, 0.55), (3, 0.0, 0.0, 0.45),
         (None, 0.0, 60.0, 0.5), (2, 2.5, 1.0, 0.2)],
    ]
    gt_dir, pred_dir = root / "gt", root / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for n, (gts, frame_preds) in enumerate(zip(frames, preds)):
        dataio.write_labels([rec(*g) for g in gts], gt_dir / f"{n:06d}.txt")
        pred_records = []
        for j, dx, dz, score in frame_preds:
            x, z, yaw = gts[j][:3] if j is not None else (0.0, 10.0, 0.0)
            pred_records.append(rec(x, z, yaw, 40.0, 0, 0.0, score=score, dx=dx, dz=dz))
        dataio.write_labels(pred_records, pred_dir / f"{n:06d}.txt")
    return gt_dir, pred_dir


class TestEvalCommand:
    def test_perfect_predictions_score_100_every_row(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=4, seed=12)
        gt = tmp_path / "gt"
        run_pseudolabel(tmp_path, gt, extra=("--score-threshold", "0.0"))
        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--pred",
                str(gt),
                "--gt",
                str(gt),
                "--class-name",
                "Pedestrian",
                "--metric",
                "3d",
                "--iou",
                "0.5",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        for row in ("easy", "moderate", "hard", "all"):
            ap = payload["rows"][row]["ap"]
            assert ap == 100.0 or payload["rows"][row]["num_gt"] == 0
        assert "class=Pedestrian" in capsys.readouterr().out

    def test_hand_computed_ap_fixture(self, tmp_path):
        def rec(x, score=None):
            return dataio.KittiLabelRecord(
                type="Car", truncated=0.0, occluded=0, alpha=0.0,
                left=0.0, top=0.0, right=60.0, bottom=50.0,
                h=1.5, w=1.6, l=3.9, x=x, y=1.0, z=10.0, rotation_y=0.0, score=score,
            )

        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        write_labels([rec(0.0), rec(10.0), rec(20.0)], gt_dir / "000000.txt")
        write_labels(
            [rec(0.0, 0.9), rec(50.0, 0.8), rec(10.0, 0.7), rec(20.0, 0.6)],
            pred_dir / "000000.txt",
        )
        report = tmp_path / "report.json"
        code = main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--class-name", "Car", "--metric", "bev", "--iou", "0.5",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        # one false positive ranked second out of four predictions over three
        # ground truths: 13 recall points at precision 1, 27 at 3/4
        expected = (13 * 1.0 + 27 * 0.75) / 40 * 100.0
        assert payload["rows"]["all"]["ap"] == expected
        assert payload["rows"]["easy"]["ap"] == expected

    def test_each_pair_iou_computed_once_across_difficulty_rows(self, tmp_path, monkeypatch):
        gt_dir, pred_dir = write_difficulty_fixture(tmp_path)
        calls = collections.Counter()
        real = eval3d.iou3d

        def counting_iou3d(a, b):
            calls[id(a), id(b)] += 1
            return real(a, b)

        monkeypatch.setattr(eval3d, "iou3d", counting_iou3d)
        report = tmp_path / "report.json"
        code = main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--class-name", "Car", "--metric", "3d", "--iou", "0.5",
                     "--report", str(report)])
        assert code == 0
        assert calls
        assert max(calls.values()) == 1
        # the rows that per-row, per-pair IoU gave on this fixture before sharing
        assert json.loads(report.read_text())["rows"] == {
            "easy": {"ap": 65.0, "false_positives": 7, "ignored_predictions": 6,
                     "matched": 2, "num_gt": 3, "num_predictions": 15},
            "moderate": {"ap": 62.85714285714291, "false_positives": 7,
                         "ignored_predictions": 4, "matched": 4, "num_gt": 5,
                         "num_predictions": 15},
            "hard": {"ap": 55.255681818181834, "false_positives": 7,
                     "ignored_predictions": 2, "matched": 6, "num_gt": 8,
                     "num_predictions": 15},
            "all": {"ap": 53.76602564102566, "false_positives": 7, "ignored_predictions": 0,
                    "matched": 8, "num_gt": 11, "num_predictions": 15},
        }

    def test_nonexistent_dir_is_data_error(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "nope"), "--gt", str(tmp_path / "nope"),
                     "--class-name", "Car"]) == 2

    def test_invalid_iou_is_invariant_violation(self, tmp_path):
        (tmp_path / "p").mkdir()
        (tmp_path / "g").mkdir()
        assert main(["eval", "--pred", str(tmp_path / "p"), "--gt", str(tmp_path / "g"),
                     "--class-name", "Car", "--iou", "1.5"]) == 3

    @pytest.mark.parametrize(
        "which, line",
        [
            ("gt", "Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 -5.00 0.00"),
            ("gt", "Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 0.00 3.90 1.00 1.50 10.00 0.00"),
            ("pred", "Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 10.00 0.00 3.20"),
        ],
    )
    def test_malformed_box_values_are_data_error_with_file(self, tmp_path, capsys, which, line):
        good = "Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 10.00 0.00"
        lines = {"gt": good, "pred": good + " 0.90", which: line}
        dirs = {name: tmp_path / name for name in lines}
        for name, d in dirs.items():
            d.mkdir()
            (d / "000000.txt").write_text(lines[name] + "\n")
        assert main(["eval", "--pred", str(dirs["pred"]), "--gt", str(dirs["gt"]), "--class-name", "Car"]) == 2
        assert str(dirs[which] / "000000.txt") in capsys.readouterr().err

    def test_bbox2d_metric_runs(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=2, seed=13)
        gt = tmp_path / "gt"
        run_pseudolabel(tmp_path, gt, extra=("--score-threshold", "0.0"))
        assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                     "--class-name", "Car", "--metric", "bbox2d"]) == 0


class TestGradcheckCommand:
    def test_default_seed_passes_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "grad.json"
        assert main(["gradcheck", "--points", "5", "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert set(payload["kernels"]) >= {"query_gate", "diversity_loss", "bin_centers"}
        assert all(entry["max_rel_error"] < payload["bound"] for entry in payload["kernels"].values())
        assert "PASS" in capsys.readouterr().out

    def test_zero_points_is_invariant_violation(self, tmp_path, capsys):
        report = tmp_path / "grad.json"
        assert main(["gradcheck", "--points", "0", "--report", str(report)]) == 3
        assert "PASS" not in capsys.readouterr().out
        assert not report.exists()

    def test_injected_gradient_bug_fails(self, monkeypatch, tmp_path):
        real = kernels.depth_kl

        def broken(gd):
            rep = real(gd)
            return LossReport(value=rep.value, grads={"mean": rep.grads["mean"] + 0.5, "std": rep.grads["std"]})

        monkeypatch.setattr(kernels, "depth_kl", broken)
        report = tmp_path / "grad.json"
        assert main(["gradcheck", "--points", "2", "--report", str(report)]) == 3
        assert json.loads(report.read_text())["passed"] is False


class TestStatsCommand:
    def write_label_dir(self, tmp_path, heights):
        pred = tmp_path / "pred"
        pred.mkdir()
        records = [
            dataio.KittiLabelRecord(
                type="Pedestrian", truncated=0.0, occluded=0, alpha=0.0,
                left=0.0, top=0.0, right=40.0, bottom=90.0,
                h=h, w=0.66, l=0.84, x=1.0, y=1.6, z=8.0, rotation_y=0.0, score=0.9,
            )
            for h in heights
        ]
        write_labels(records, pred / "000000.txt")
        return pred

    def test_single_height(self, tmp_path, capsys):
        pred = self.write_label_dir(tmp_path, [1.73, 1.73, 1.73])
        out = tmp_path / "hist.txt"
        assert main(["stats", "--pred", str(pred), "--class-name", "Pedestrian",
                     "--bin-width", "0.05", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "mean = 1.730000" in captured
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        center, count = lines[0].split()
        assert int(count) == 3

    def test_two_heights_counted(self, tmp_path):
        pred = self.write_label_dir(tmp_path, [1.6, 1.6, 1.8])
        out = tmp_path / "hist.txt"
        assert main(["stats", "--pred", str(pred), "--class-name", "Pedestrian",
                     "--bin-width", "0.1", "--out", str(out)]) == 0
        counts = [int(line.split()[1]) for line in out.read_text().splitlines()]
        assert sum(counts) == 3
        assert max(counts) == 2

    def test_empty_dir_is_error(self, tmp_path):
        empty = tmp_path / "pred"
        empty.mkdir()
        assert main(["stats", "--pred", str(empty), "--class-name", "Pedestrian"]) == 2

    def test_no_matching_class_is_error(self, tmp_path):
        pred = self.write_label_dir(tmp_path, [1.7])
        assert main(["stats", "--pred", str(pred), "--class-name", "Car"]) == 2

    @pytest.mark.parametrize("heights", [[1.7, -1.7], [1.7, 0.0]])
    def test_nonpositive_height_is_data_error_with_file(self, tmp_path, capsys, heights):
        pred = self.write_label_dir(tmp_path, heights)
        assert main(["stats", "--pred", str(pred), "--class-name", "Pedestrian"]) == 2
        assert str(pred / "000000.txt") in capsys.readouterr().err


class TestFilterCommand:
    def test_constant_losses_all_kept(self, tmp_path, capsys):
        losses = tmp_path / "l.txt"
        losses.write_text("1.0\n1.0\n1.0\n")
        assert main(["filter", "--losses", str(losses)]) == 0
        out = capsys.readouterr().out
        assert out.count("keep") >= 3
        assert "drop" not in out.replace("dropped", "")

    def test_extreme_loss_dropped(self, tmp_path, capsys):
        losses = tmp_path / "l.txt"
        losses.write_text("a 1\nb 1\nc 1\nd 1\ne 100\n")
        assert main(["filter", "--losses", str(losses), "--k", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "drop e 100.000000" in out
        assert "kept = 4" in out

    def test_k_zero_drops_above_median(self, tmp_path, capsys):
        losses = tmp_path / "l.txt"
        losses.write_text("1\n2\n3\n4\n5\n")
        assert main(["filter", "--losses", str(losses), "--k", "0"]) == 0
        out = capsys.readouterr().out
        assert "kept = 3" in out and "dropped = 2" in out

    def test_malformed_line_is_data_error(self, tmp_path):
        losses = tmp_path / "l.txt"
        losses.write_text("a 1 extra\n")
        assert main(["filter", "--losses", str(losses)]) == 2


class TestNormalizeCommand:
    def make_labels(self, tmp_path):
        labels = tmp_path / "labels"
        calib = tmp_path / "calib"
        labels.mkdir()
        calib.mkdir()
        fx = fy = 700.0
        cx, cy = 320.0, 240.0
        fixtures.write_calib(calib / "000000.txt", fx, fy, cx, cy)
        recs = []
        for i, (x, y, z) in enumerate([(-2.0, 1.5, 12.0), (1.0, 1.4, 7.0)]):
            ry = 0.3 * i
            recs.append(
                dataio.KittiLabelRecord(
                    type="Pedestrian", truncated=0.0, occluded=0,
                    alpha=math.remainder(ry - math.atan2(x, z), math.tau),
                    left=100.0 + 50 * i, top=80.0, right=140.0 + 50 * i, bottom=200.0,
                    h=1.7, w=0.6, l=0.8, x=x, y=y, z=z, rotation_y=ry, score=0.9,
                )
            )
        write_labels(recs, labels / "000000.txt")
        return labels, calib

    def test_round_trip_through_virtual_space(self, tmp_path):
        labels, calib = self.make_labels(tmp_path)
        fwd = tmp_path / "virtual"
        back = tmp_path / "restored"
        args = ["--image-width", "640", "--image-height", "480",
                "--focal", "900", "--width", "1274", "--height", "644"]
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib),
                     "--out", str(fwd), *args]) == 0
        assert main(["normalize", "--labels", str(fwd), "--calib", str(calib),
                     "--out", str(back), "--invert", *args]) == 0
        orig = read_labels(labels / "000000.txt")
        restored = read_labels(back / "000000.txt")
        for a, b in zip(orig, restored):
            for field in ("x", "y", "z", "left", "top", "right", "bottom", "h", "w", "l"):
                assert getattr(b, field) == pytest.approx(getattr(a, field), abs=0.02)

    def test_depth_rescales_with_focal_ratio(self, tmp_path):
        labels, calib = self.make_labels(tmp_path)
        fwd = tmp_path / "virtual"
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib),
                     "--out", str(fwd), "--image-width", "640", "--image-height", "480",
                     "--focal", "1400", "--width", "640", "--height", "480"]) == 0
        orig = read_labels(labels / "000000.txt")
        virt = read_labels(fwd / "000000.txt")
        for a, b in zip(orig, virt):
            assert b.z == pytest.approx(a.z * 1400.0 / 700.0, abs=0.01)

    def test_missing_calib_is_data_error(self, tmp_path):
        labels, calib = self.make_labels(tmp_path)
        (calib / "000000.txt").unlink()
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib),
                     "--out", str(tmp_path / "o"), "--image-width", "640",
                     "--image-height", "480"]) == 2


class TestParserDefaults:
    def test_normalize_camera_defaults_come_from_pipeline_config(self):
        args = build_parser().parse_args(
            ["normalize", "--labels", "l", "--calib", "c", "--out", "o",
             "--image-width", "640", "--image-height", "480"]
        )
        cfg = PipelineConfig()
        assert (args.focal, args.width, args.height) == (
            cfg.virtual_focal, cfg.virtual_width, cfg.virtual_height
        )


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["eval", "--pred", "x"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "pseudolabel" in capsys.readouterr().err


GOOD_P2 = b"P2: 500 0 160 0 0 500 120 0 0 0 1 0\n"


class TestMalformedInputIsDataError:
    """Each malformed input exits 2 and names its file (and line), or the config key."""

    @pytest.mark.parametrize(
        "text, line",
        [
            (b"P2: -500 0 160 0 0 500 120 0 0 0 1 0\n", None),
            (b"P2: 500 0 9000 0 0 500 120 0 0 0 1 0\n", None),
            (b"P2: nan 0 160 0 0 500 120 0 0 0 1 0\n", 1),
            (GOOD_P2 + b"P0: 1 0 0 0 0 1 0 0 0 0 1 \xff\n", 2),
        ],
        ids=["negative-fx", "principal-point-outside", "nan", "0xff"],
    )
    def test_pseudolabel_calibration(self, tmp_path, capsys, text, line):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        path = tmp_path / "calib" / "000000.txt"
        path.write_bytes(text)
        assert run_pseudolabel(tmp_path, tmp_path / "out") == 2
        assert (f"{path}:{line}:" if line else f"{path}:") in capsys.readouterr().err

    def test_normalize_calibration_with_negative_focal(self, tmp_path, capsys):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        path = calib / "000000.txt"
        path.write_text("P2: -700 0 320 0 0 700 240 0 0 0 1 0\n")
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(tmp_path / "o"),
                     "--image-width", "640", "--image-height", "480"]) == 2
        assert f"{path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, line",
        [
            ("gt", b"Car 0.00 0 0.00 100.00 100.00 160.00 160.00 nan 1.60 3.90 1.00 1.50 nan 0.00"),
            ("gt", b"Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 -5.00 0.00"),
            ("gt", b"Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 5.00 0.00 \xff"),
            ("pred", b"Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 inf 0.00 0.90"),
        ],
        ids=["gt-nan-h-z", "gt-negative-z", "gt-0xff", "pred-inf-z"],
    )
    def test_eval_label_names_file_and_line(self, tmp_path, capsys, which, line):
        gt = b"Car 0.00 0 0.00 100.00 100.00 160.00 160.00 1.50 1.60 3.90 1.00 1.50 10.00 0.00"
        good = {"gt": gt, "pred": gt + b" 0.90"}
        dirs = {name: tmp_path / name for name in good}
        for name, d in dirs.items():
            d.mkdir()
            second = line if name == which else good[name]
            (d / "000000.txt").write_bytes(good[name] + b"\n" + second + b"\n")
        assert main(["eval", "--pred", str(dirs["pred"]), "--gt", str(dirs["gt"]), "--class-name", "Car"]) == 2
        assert f"{dirs[which] / '000000.txt'}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            b'{"image": "000000", "detections": []}\xff',
            b'{"image": "000000", "detections": [{"class": "Car", "bbox": [1' + b"0" * 4999
            + b', 20, 60, 90], "score": 0.5}]}',
            b'{"image": "000000", "detections": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        ],
        ids=["0xff", "5000-digit-int", "deep-nesting"],
    )
    def test_detection_file_names_file_and_line(self, tmp_path, capsys, record):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        path = tmp_path / "detections" / "scene.jsonl"
        header = json.dumps({"schema": dataio.DETECTION_SCHEMA, "version": dataio.DETECTION_VERSION})
        path.write_bytes(header.encode() + b"\n" + record + b"\n")
        assert run_pseudolabel(tmp_path, tmp_path / "out") == 2
        assert f"{path}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, expected",
        [
            (b"score_threshold = 0.2\nvirtual_focal = nan\n", ["line 2", "virtual_focal"]),
            (b"prior.Car = -1 2 3\n", ["line 1", "prior.Car"]),
            (b"score_threshold = 0.2\nprior.Car = nan 1 1\n", ["line 2", "prior.Car"]),
            (b"score_threshold = 0.2 \xff\n", ["c.cfg"]),
            (b"depth_window = 5\nscore_threshold = 5\n", ["c.cfg", "line 2", "score_threshold"]),
        ],
        ids=["nan-focal", "negative-prior", "nan-prior", "0xff", "out-of-range"],
    )
    def test_config_file(self, tmp_path, capsys, text, expected):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        (tmp_path / "c.cfg").write_bytes(text)
        assert run_pseudolabel(tmp_path, tmp_path / "out", extra=("--config", str(tmp_path / "c.cfg"))) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in expected)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag(self, tmp_path, capsys, value):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out, extra=("--virtual-focal", value)) == 2
        assert "virtual_focal" in capsys.readouterr().err
        assert list(out.glob("*.txt")) == []

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--clamp-alpha", "1.5", "clamp_alpha"), ("--virtual-width", "0", "virtual_width")],
    )
    def test_out_of_range_flag_names_key(self, tmp_path, capsys, flag, value, key):
        fixtures.build_scene(tmp_path, n_images=1, seed=12)
        assert run_pseudolabel(tmp_path, tmp_path / "out", extra=(flag, value)) == 2
        assert key in capsys.readouterr().err

    def test_filter_nan_loss(self, tmp_path, capsys):
        losses = tmp_path / "l.txt"
        losses.write_text("a 1\nb nan\n")
        assert main(["filter", "--losses", str(losses)]) == 2
        assert f"{losses}:2:" in capsys.readouterr().err

    def test_filter_undecodable_byte(self, tmp_path, capsys):
        losses = tmp_path / "l.txt"
        losses.write_bytes(b"a 1\nb 2\xff\n")
        assert main(["filter", "--losses", str(losses)]) == 2
        assert f"{losses}:2:" in capsys.readouterr().err


class TestNonFiniteFlagsAreRejected:
    """A non-finite value of a flag outside PipelineConfig is out of range, like any other (exit 3)."""

    @pytest.mark.parametrize("focal", ["nan", "inf"])
    def test_normalize_focal(self, tmp_path, focal):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        out = tmp_path / "o"
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     "--image-width", "640", "--image-height", "480", "--focal", focal]) == 3
        assert list(out.glob("*.txt")) == []

    def test_filter_k(self, tmp_path):
        losses = tmp_path / "l.txt"
        losses.write_text("1\n2\n3\n")
        assert main(["filter", "--losses", str(losses), "--k", "nan"]) == 3

    def test_stats_bin_width(self, tmp_path):
        pred = TestStatsCommand().write_label_dir(tmp_path, [1.7])
        assert main(["stats", "--pred", str(pred), "--class-name", "Pedestrian", "--bin-width", "inf"]) == 3
