import collections
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fixtures
import mono3dkit
from mono3dkit import cli, dataio, eval3d, kernels
from mono3dkit.cli import build_parser, main
from mono3dkit.config import PipelineConfig
from mono3dkit.dataio import read_labels, write_labels
from mono3dkit.kernels import LossReport


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.txt"))}


def dir_digest(path):
    """sha256 of the names and bytes of every label file in `path`."""
    h = hashlib.sha256()
    for name, data in dir_bytes(path).items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


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
        summary = captured.split("[summary]\n")[1].split("[config]")[0].splitlines()
        assert [line.split(" = ")[0] for line in summary] == [
            "images", "emitted", "below_threshold", "no_depth", "no_prior", "conflicts"
        ]
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
        assert run_pseudolabel(tmp_path, out) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert f"no detection files in {tmp_path / 'detections'}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_depth_raster_is_data_error(self, tmp_path, capsys, kind):
        """A FIFO named <image>.dpr with no writer is refused at once, not waited on."""
        fixtures.build_scene(tmp_path, n_images=2, seed=7)
        victim = tmp_path / "depth" / "000001.dpr"
        victim.unlink()
        os.mkfifo(victim) if kind == "fifo" else victim.mkdir()
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run_pseudolabel(tmp_path, tmp_path / "out")))
        worker.start()
        worker.join(timeout=10)
        if worker.is_alive():
            # Blocked opening the FIFO: a writer that opens and closes it lets the run end.
            os.close(os.open(victim, os.O_WRONLY | os.O_NONBLOCK))
            worker.join()
            pytest.fail("pseudolabel blocked opening a FIFO depth raster")
        assert codes == [2]
        assert f"{victim}: not a regular file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_calib_names_image_and_cleans_up(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        victim = tmp_path / "calib" / "000001.txt"
        victim.unlink()
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 2
        assert "000001" in capsys.readouterr().err
        # partial outputs removed on failure
        assert list(out.glob("*.txt")) == []

    @pytest.mark.parametrize("field", [f for f in fields(PipelineConfig) if f.name != "priors"], ids=lambda f: f.name)
    def test_every_scalar_config_key_is_a_flag(self, field):
        value = CONFIG_KEY_CHANGES[field.name].split(" = ")[1]
        args = build_parser().parse_args(
            ["pseudolabel", "--detections", "d", "--depth", "p", "--calib", "c", "--out", "o",
             f"--{field.name.replace('_', '-')}", value]
        )
        parsed = getattr(args, field.name)
        assert type(parsed) is type(field.default) and parsed != field.default
        assert getattr(cli._load_pipeline_config(args), field.name) == parsed

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

    def test_empty_gt_dir_is_data_error(self, tmp_path, capsys):
        fixtures.build_eval_scene(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(empty),
                     "--class-name", "Car", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert f"no label files in {empty}" in captured.err
        assert captured.out == ""
        assert not report.exists()

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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "grad.json"
        assert main(["gradcheck", "--seed", "-1", "--report", str(report)]) == 1
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
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

    def test_nan_gradient_fails(self, monkeypatch, tmp_path, capsys):
        real = kernels.dice_loss

        def broken(pair, smooth=1e-6):
            rep = real(pair, smooth=smooth)
            return LossReport(value=rep.value, grads={"pred": rep.grads["pred"] * math.nan})

        monkeypatch.setattr(kernels, "dice_loss", broken)
        report = tmp_path / "grad.json"
        assert main(["gradcheck", "--points", "2", "--report", str(report)]) == 3
        out = capsys.readouterr().out
        assert re.search(r"^dice_loss +max_rel_error=inf FAIL$", out, re.M)
        assert re.search(r"^region_loss +max_rel_error=inf FAIL$", out, re.M)
        payload = json.loads(report.read_text())
        assert payload["passed"] is False
        assert payload["kernels"]["dice_loss"] == {"max_rel_error": math.inf, "passed": False}


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

    @pytest.mark.parametrize("bin_width, count", [("1e-10", "1e+10"), ("1e-300", "1e+300")])
    def test_bin_count_is_capped(self, tmp_path, capsys, bin_width, count):
        """A bin width far below the heights' spread is out of range (exit 3), not an allocation."""
        pred = self.write_label_dir(tmp_path, [1.0, 2.0])
        out = tmp_path / "hist.txt"
        assert main(["stats", "--pred", str(pred), "--class-name", "Pedestrian",
                     "--bin-width", bin_width, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"bin_width {float(bin_width)} gives {count} bins, more than 1000000" in err
        assert not out.exists()

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

    def test_dont_care_placeholder_keeps_location(self, tmp_path):
        labels, calib = self.make_labels(tmp_path)
        line = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
        with open(labels / "000000.txt", "a") as f:
            f.write(line)
        fwd, back = tmp_path / "virtual", tmp_path / "restored"
        args = ["--calib", str(calib), "--image-width", "640", "--image-height", "480",
                "--focal", "900", "--width", "1274", "--height", "644"]
        assert main(["normalize", "--labels", str(labels), "--out", str(fwd), *args]) == 0
        assert main(["normalize", "--labels", str(fwd), "--out", str(back), "--invert", *args]) == 0
        [orig, virt, restored] = [read_labels(d / "000000.txt")[-1] for d in (labels, fwd, back)]
        assert orig.type == "DontCare"
        kept = ("x", "y", "z", "h", "w", "l", "alpha", "rotation_y")
        for rec in (virt, restored):
            assert [getattr(rec, f) for f in kept] == [getattr(orig, f) for f in kept]
        assert (virt.left, virt.top, virt.right, virt.bottom) == pytest.approx(
            (503.89 * 1274 / 640, 169.71 * 644 / 480, 590.61 * 1274 / 640, 190.13 * 644 / 480), abs=0.005
        )
        assert (restored.left, restored.top, restored.right, restored.bottom) == pytest.approx(
            (orig.left, orig.top, orig.right, orig.bottom), abs=0.02
        )

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

    def test_empty_label_dir_is_data_error(self, tmp_path, capsys):
        labels, calib = tmp_path / "labels", tmp_path / "calib"
        labels.mkdir()
        calib.mkdir()
        out = tmp_path / "o"
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     "--image-width", "640", "--image-height", "480"]) == 2
        captured = capsys.readouterr()
        assert f"no label files in {labels}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--image-width", "0"), ("--image-height", "-480")])
    def test_nonpositive_image_size_is_invariant_violation(self, tmp_path, capsys, flag, value):
        """The flag is at fault, not the calibration file, and is refused before any file is read."""
        labels, calib = self.make_labels(tmp_path)
        (calib / "000000.txt").write_text("not a calibration file\n")
        sizes = {"--image-width": "640", "--image-height": "480", flag: value}
        out = tmp_path / "o"
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     *(token for item in sizes.items() for token in item)]) == 3
        err = capsys.readouterr().err
        assert f"{flag} must be positive, got {value}" in err
        assert str(calib) not in err
        assert not out.exists()

    def test_missing_calib_is_data_error(self, tmp_path):
        labels, calib = self.make_labels(tmp_path)
        (calib / "000000.txt").unlink()
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib),
                     "--out", str(tmp_path / "o"), "--image-width", "640",
                     "--image-height", "480"]) == 2


class TestOutputsAreWrittenWhole:
    """No output is written before every input has succeeded, and each output file is replaced whole."""

    def test_failed_rerun_leaves_out_unchanged(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (tmp_path / "calib" / "000002.txt").unlink()
        assert run_pseudolabel(tmp_path, out) == 2
        assert "000002" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rerun_with_fewer_images_is_refused(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path / "three", n_images=3, seed=7)
        fixtures.build_scene(tmp_path / "two", n_images=2, seed=7)
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path / "three", out) == 0
        assert run_pseudolabel(tmp_path / "three", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_pseudolabel(tmp_path / "two", out) == 2
        assert f"{out / '000002.txt'} is not a label this run writes" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_normalize_refuses_a_stale_label(self, tmp_path, capsys):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        (out / "stale.txt").write_text("")
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     "--image-width", "640", "--image-height", "480"]) == 2
        assert f"{out / 'stale.txt'} is not a label this run writes" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["stale.txt"]

    def test_failed_run_creates_no_out(self, tmp_path):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        (tmp_path / "calib" / "000002.txt").unlink()
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 2
        assert not out.exists()

    def test_failed_normalize_writes_nothing(self, tmp_path, capsys):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        (labels / "000001.txt").write_bytes((labels / "000000.txt").read_bytes())
        out = tmp_path / "o"
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     "--image-width", "640", "--image-height", "480"]) == 2
        assert f"{calib / '000001.txt'}" in capsys.readouterr().err
        assert not out.exists()

    def test_pseudolabel_refuses_an_overflowing_bbox(self, tmp_path, capsys):
        """Finite box edges that overflow in the virtual camera give an infinite bbox: exit 3, and no --out."""
        for d in ("detections", "depth", "calib"):
            (tmp_path / d).mkdir()
        dataio.write_depth(np.full((fixtures.RASTER_H, fixtures.RASTER_W), 10.0), tmp_path / "depth" / "000000.dpr")
        fixtures.write_calib(tmp_path / "calib" / "000000.txt", 500.0, 500.0, 160.0, 120.0)
        wide = mono3dkit.Detection2D("Car", -1e308, 100.0, 1e308, 200.0, 0.9)
        dataio.write_detections({"000000": [dataio.DetectionEntry(wide, 0.3)]}, tmp_path / "detections" / "scene.jsonl")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_pseudolabel(tmp_path, out) == 3
        assert f"cannot write label file {out / '000000.txt'}: left is -inf, not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, calib_fx",
        # With a 1e4 px source focal and the default 900 px virtual focal, or a 500 px
        # source focal, the scene below labels cleanly; the focal changed here alone
        # drives the virtual depth z * f_v / fx, and so x, past float range.
        [(("--virtual-focal", "1e6"), 1e4), ((), 1.0)],
        ids=["virtual-focal", "calib-fx"],
    )
    def test_pseudolabel_refuses_a_label_the_reader_refuses(self, tmp_path, capsys, extra, calib_fx):
        """A depth scale that overflows gives an infinite location: exit 3, and no --out."""
        for d in ("detections", "depth", "calib"):
            (tmp_path / d).mkdir()
        dataio.write_depth(np.full((fixtures.RASTER_H, fixtures.RASTER_W), 10.0), tmp_path / "depth" / "000000.dpr")
        fixtures.write_calib(tmp_path / "calib" / "000000.txt", calib_fx, 500.0, 160.0, 120.0)
        # `far` is centered at u = -c, far off the raster, inside `cover`; the first point of its
        # fallback lattice that `cover` leaves clear is u = 0, on the raster, so it gets a depth.
        c = 2.0**1015
        far = mono3dkit.Detection2D("Car", -3 * c, 100.0, c, 200.0, 0.9)
        cover = mono3dkit.Detection2D("Car", -4 * c, 90.0, -1.0, 210.0, 0.9)
        entries = [dataio.DetectionEntry(far, 0.3), dataio.DetectionEntry(cover, 0.3)]
        dataio.write_detections({"000000": entries}, tmp_path / "detections" / "scene.jsonl")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_pseudolabel(tmp_path, out, extra) == 3
        assert f"cannot write label file {out / '000000.txt'}: x is -inf, not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_normalize_refuses_a_label_the_reader_refuses(self, tmp_path, capsys):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        [rec, *_] = read_labels(labels / "000000.txt")
        write_labels([replace(rec, left=-1e308)], labels / "000000.txt")
        out = tmp_path / "o"
        # 1e308 * (1274 / 640) overflows.
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                     "--image-width", "640", "--image-height", "480"]) == 3
        assert f"cannot write label file {out / '000000.txt'}: left is -inf" in capsys.readouterr().err
        assert not out.exists()

    def test_label_path_that_is_a_directory(self, tmp_path, capsys):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        out = tmp_path / "out"
        (out / "000001.txt").mkdir(parents=True)
        assert run_pseudolabel(tmp_path, out) == 2
        assert f"cannot write label file {out / '000001.txt'}" in capsys.readouterr().err
        assert list(out.rglob("*.tmp")) == []

    def test_report_in_missing_directory(self, tmp_path, capsys):
        report = tmp_path / "missing" / "grad.json"
        assert main(["gradcheck", "--points", "2", "--report", str(report)]) == 2
        assert f"cannot write report file {report}" in capsys.readouterr().err
        assert not report.parent.exists()

    def test_report_through_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "grad.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["gradcheck", "--points", "2", "--report", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["passed"] is True

    def test_report_into_fifo_keeps_the_fifo(self, tmp_path):
        fifo = tmp_path / "grad.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["gradcheck", "--points", "2", "--report", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert json.loads(received[0])["passed"] is True


class TestOutputStaysInOut:
    """No run reads or writes beside its directories, nor writes into an input directory."""

    def test_image_id_cannot_leave_the_directories(self, tmp_path, capsys):
        """An image id names the depth, calib and label files: "../escaped" would read
        depth/../escaped.dpr and calib/../escaped.txt, then replace out/../escaped.txt."""
        fixtures.build_scene(tmp_path, n_images=2, seed=7)
        path = tmp_path / "detections" / "scene.jsonl"
        images = dataio.read_detections(path)
        images["../escaped"] = images["000000"]
        dataio.write_detections(images, path)
        escaped = (tmp_path / "escaped.txt", tmp_path / "escaped.dpr")
        for src, dst in zip((tmp_path / "calib" / "000000.txt", tmp_path / "depth" / "000000.dpr"), escaped):
            dst.write_bytes(src.read_bytes())
        before = [p.read_bytes() for p in escaped]
        out = tmp_path / "out"
        assert run_pseudolabel(tmp_path, out) == 2
        assert f"{path}:4: image id '../escaped' is not a plain file name" in capsys.readouterr().err
        assert [p.read_bytes() for p in escaped] == before
        assert not out.exists()

    @staticmethod
    def out_alias(tmp_path, d, alias):
        """`d` itself, `d/.` or a symlink to `d`, as an --out value."""
        if alias == "symlink":
            (tmp_path / "link").symlink_to(d)
            return str(tmp_path / "link")
        return str(d) + ("/." if alias == "dot" else "")

    @pytest.mark.parametrize("alias", ["same", "dot", "symlink"])
    @pytest.mark.parametrize("flag", ["--detections", "--depth", "--calib"])
    def test_pseudolabel_out_is_not_an_input(self, tmp_path, capsys, flag, alias):
        fixtures.build_scene(tmp_path, n_images=2, seed=7)
        d = tmp_path / flag[2:]
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        assert run_pseudolabel(tmp_path, self.out_alias(tmp_path, d, alias)) == 2
        err = capsys.readouterr().err
        assert f"is the {flag} directory {d}; choose another --out" in err
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before

    @pytest.mark.parametrize("alias", ["same", "dot", "symlink"])
    @pytest.mark.parametrize("flag", ["--labels", "--calib"])
    def test_normalize_out_is_not_an_input(self, tmp_path, capsys, flag, alias):
        """This also refuses an in-place normalize, which an interruption would leave half converted."""
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        d = {"--labels": labels, "--calib": calib}[flag]
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        assert main(["normalize", "--labels", str(labels), "--calib", str(calib),
                     "--out", self.out_alias(tmp_path, d, alias),
                     "--image-width", "640", "--image-height", "480"]) == 2
        assert f"is the {flag} directory {d}; choose another --out" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before


class TestOutputBytes:
    """The label bytes of a fixed scene under the default, anisotropic virtual camera
    (320x240 to 1274x644).  A change that moves any of them must update these on purpose.

    Both normalize directions read the pseudolabel output, so each digest
    depends only on its own command's code.
    """

    DIGESTS = {
        "pseudolabel": "260f34f9f4b98d030264086dbfee7d2024adeabbd8bea05993fd290f7287c4d7",
        "normalize": "2f9081e2909bff2ec678c1089fdc647378ff65c40e11d3211cf07edbf151a4cd",
        "normalize --invert": "828c06324f1984ec13eadbdcc8ccc4d0c88e82fae2b4b0aac8eb619061970b00",
    }

    def test_digests(self, tmp_path):
        fixtures.build_fixed_scene(tmp_path)
        assert run_pseudolabel(tmp_path, tmp_path / "pseudolabel") == 0
        for name, extra in (("normalize", []), ("normalize --invert", ["--invert"])):
            assert main(["normalize", "--labels", str(tmp_path / "pseudolabel"), "--calib", str(tmp_path / "calib"),
                         "--out", str(tmp_path / name), "--image-width", str(fixtures.RASTER_W),
                         "--image-height", str(fixtures.RASTER_H), *extra]) == 0
        assert {name: dir_digest(tmp_path / name) for name in self.DIGESTS} == self.DIGESTS


class TestEvalReportBytes:
    """The `eval --report` bytes of a fixed scene.  Its IoUs sit at least 0.0018
    from the 0.7 threshold, so only a change to matching or AP should move them."""

    DIGESTS = {
        "3d": "054a60e53c22604da12448822f81349f0a5823ceb43c7c90d5a6ca97e99096c1",
        "bev": "c80d4bcc5b368b408d67b336563cade6a241b2128832d88bdc87f149c757a5c5",
    }

    def test_digests(self, tmp_path):
        gt_dir, pred_dir = fixtures.build_eval_scene(tmp_path)
        digests = {}
        for metric in self.DIGESTS:
            report = tmp_path / f"{metric}.json"
            assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--class-name", "Car",
                         "--metric", metric, "--report", str(report)]) == 0
            assert 0.0 < json.loads(report.read_text())["rows"]["moderate"]["ap"] < 100.0
            digests[metric] = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digests == self.DIGESTS


def run_gradcheck_subprocess(argv, hash_seed="0"):
    """Run `gradcheck <argv>` through `cli.main` in a fresh interpreter that
    then prints whether `numpy.random` was loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(mono3dkit.__file__).parents[1]), PYTHONHASHSEED=hash_seed)
    code = (
        "import sys; from mono3dkit.cli import main; code = main(sys.argv[1:]); "
        "print('numpy.random' in sys.modules); sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", code, "gradcheck", *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestClosedLoopQuality:
    """The toolkit scores its own pseudo-labels against the truth they came from:
    pseudolabel, then normalize --invert, then eval, on an arithmetic Car scene.

    Each floor is the `all` row's AP@0.5 measured when the test was written,
    less 1 AP point.  The cheapest lost match in this scene costs 1.65 points
    (moving one matched label 50 m sideways, over both cameras and metrics),
    so the margin absorbs rounding but no lost match.  A change that improves
    quality may raise a floor; none may lower one.  The 3D gap between the two
    cameras is ROADMAP item 1 (the default camera's vertical resize).
    """

    # camera: ((virtual focal, width, height), {metric: floor})
    CAMERAS = {
        "default": ((PipelineConfig.virtual_focal, PipelineConfig.virtual_width, PipelineConfig.virtual_height),
                    {"bev": 30.0, "3d": 15.0}),  # measured 31.01 and 16.05
        "identity-size": ((fixtures.KITTI_P2[0], fixtures.KITTI_W, fixtures.KITTI_H),
                          {"bev": 30.0, "3d": 30.0}),  # measured 31.01 and 31.01
    }

    @pytest.mark.parametrize("camera", sorted(CAMERAS))
    def test_ap_floors(self, tmp_path, camera):
        (focal, width, height), floors = self.CAMERAS[camera]
        fixtures.build_truth_scene(tmp_path)
        virtual = ["--virtual-focal", str(focal), "--virtual-width", str(width), "--virtual-height", str(height)]
        assert run_pseudolabel(tmp_path, tmp_path / "virtual", virtual) == 0
        assert main(["normalize", "--labels", str(tmp_path / "virtual"), "--calib", str(tmp_path / "calib"),
                     "--out", str(tmp_path / "source"), "--invert", "--image-width", str(fixtures.KITTI_W),
                     "--image-height", str(fixtures.KITTI_H), "--focal", str(focal), "--width", str(width),
                     "--height", str(height)]) == 0
        ap = {}
        for metric in floors:
            report = tmp_path / f"{metric}.json"
            assert main(["eval", "--pred", str(tmp_path / "source"), "--gt", str(tmp_path / "truth"),
                         "--class-name", "Car", "--iou", "0.5", "--metric", metric, "--report", str(report)]) == 0
            ap[metric] = json.loads(report.read_text())["rows"]["all"]["ap"]
        for metric, floor in floors.items():
            assert ap[metric] >= floor, ap


class TestGradcheckStream:
    def test_fresh_gradcheck_never_loads_numpy_random(self):
        proc = run_gradcheck_subprocess(["--points", "1"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_report_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        reports = []
        for hash_seed in ("1", "2"):
            report = tmp_path / f"grad-{hash_seed}.json"
            proc = run_gradcheck_subprocess(["--seed", "7", "--points", "2", "--report", str(report)], hash_seed)
            assert proc.returncode == 0, proc.stderr
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_closed_pipe_exits_141_after_writing_every_label(self, tmp_path, unbuffered):
        """`mono3dkit pseudolabel ... | head -2`: the reader closes its end before the summary."""
        ids = fixtures.build_scene(tmp_path, n_images=3, seed=7)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(mono3dkit.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mono3dkit", "pseudolabel",
                 "--detections", str(tmp_path / "detections"), "--depth", str(tmp_path / "depth"),
                 "--calib", str(tmp_path / "calib"), "--out", str(tmp_path / "out")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""
        assert sorted(p.stem for p in (tmp_path / "out").glob("*.txt")) == sorted(ids)


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


# Per subcommand: one valid argv and usage errors (a missing required flag or
# flag value, a bad choice or type) that its subparser reports.
PARSER_CASES = {
    "pseudolabel": (
        ["--detections", "d", "--depth", "p", "--calib", "c", "--out", "o", "--workers", "2",
         "--score-threshold", "0.3", "--depth-window", "7"],
        [["--detections", "d"], ["--detections", "d", "--depth", "p", "--calib", "c", "--out", "o",
                                 "--workers", "two"], ["--depth-window", "1.5"]],
    ),
    "eval": (
        ["--pred", "p", "--gt", "g", "--class-name", "Car", "--metric", "bev", "--iou", "0.5"],
        [["--pred", "p"], ["--pred", "p", "--gt", "g", "--class-name", "Car", "--metric", "4d"],
         ["--pred", "p", "--gt", "g", "--class-name", "Car", "--iou", "high"]],
    ),
    "gradcheck": (
        ["--seed", "3", "--points", "5", "--report", "r.json"],
        [["--seed"], ["--seed", "-1"], ["--points", "many"], ["--bogus"]],
    ),
    "stats": (
        ["--pred", "p", "--class-name", "Car", "--bin-width", "0.1"],
        [["--class-name", "Car"], ["--pred", "p", "--class-name", "Car", "--bin-width", "wide"]],
    ),
    "filter": (
        ["--losses", "l.txt", "--k", "2.5"],
        [[], ["--losses", "l.txt", "--k", "x"]],
    ),
    "normalize": (
        ["--labels", "l", "--calib", "c", "--out", "o", "--image-width", "640", "--image-height", "480",
         "--invert"],
        [["--labels", "l", "--calib", "c", "--out", "o", "--image-width", "640"],
         ["--labels", "l", "--calib", "c", "--out", "o", "--image-width", "6.4e2", "--image-height", "480"]],
    ),
}


class TestOneSubparser:
    """build_parser(name) parses, helps and fails like the full parser for `name`."""

    def test_cases_cover_every_subcommand(self):
        assert list(PARSER_CASES) == list(cli._SUBCOMMANDS)

    @staticmethod
    def help_text(parser, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 0
        return capsys.readouterr().out

    @staticmethod
    def usage_error(parser, argv):
        with pytest.raises(cli.UsageError) as err:
            parser.parse_args(argv)
        return str(err.value)

    @pytest.mark.parametrize("name", list(PARSER_CASES))
    def test_help_is_identical(self, name, capsys):
        alone = self.help_text(build_parser(name), [name, "--help"], capsys)
        full = self.help_text(build_parser(), [name, "--help"], capsys)
        assert alone == full
        assert alone.startswith(f"usage: mono3dkit {name} ")

    @pytest.mark.parametrize("name", list(PARSER_CASES))
    def test_valid_argv_gives_the_same_namespace(self, name):
        argv = [name, *PARSER_CASES[name][0]]
        args = build_parser(name).parse_args(argv)
        assert args == build_parser().parse_args(argv)
        assert args.command == name and args.func is getattr(cli, f"cmd_{name}")

    @pytest.mark.parametrize(
        "name, bad", [(name, bad) for name, (_, errors) in PARSER_CASES.items() for bad in errors]
    )
    def test_usage_errors_are_identical(self, name, bad):
        argv = [name, *bad]
        message = self.usage_error(build_parser(name), argv)
        assert message == self.usage_error(build_parser(), argv)
        assert message

    def test_main_builds_only_the_named_subparser(self, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
        assert main(["gradcheck", "--points", "many"]) == 1
        assert main(["frobnicate", "gradcheck"]) == 1
        assert main([]) == 1
        assert built == ["gradcheck", None, None]

    def test_top_level_help_lists_all_six(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert all(name in out for name in PARSER_CASES)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        choices = ", ".join(repr(name) for name in PARSER_CASES)
        assert f"invalid choice: 'frobnicate' (choose from {choices})" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert main(["eval", "--pred", "x"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in PARSER_CASES)


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
            (b"score_threshold = 0.2\nvirtual_focal = 900 \xff\n", ["c.cfg:2: byte 0xff is not utf-8 text"]),
            (b"prior.Traffic Cone = 0.5 0.5 0.8\n", ["line 1", "prior.Traffic Cone"]),
            ("prior.Fußgänger = 0.66 0.84 1.76\n".encode(), ["line 1", "prior.Fu"]),
        ],
        ids=["nan-focal", "negative-prior", "nan-prior", "0xff", "out-of-range", "0xff-line-2", "space-in-class",
             "non-ascii-class"],
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


def text_input_case(root, which):
    """(argv, path, what): a run that reads the text input `which` from `path`,
    and the name its errors give that kind of file."""
    if which in ("gt", "pred"):
        gt_dir, pred_dir = write_difficulty_fixture(root)
        path = (gt_dir if which == "gt" else pred_dir) / "000001.txt"
        return ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--class-name", "Car"], path, "label"
    if which == "losses":
        path = root / "l.txt"
        return ["filter", "--losses", str(path)], path, "losses"
    fixtures.build_scene(root, n_images=2, seed=7)
    path = {"calib": root / "calib" / "000001.txt", "detection": root / "detections" / "scene.jsonl",
            "config": root / "c.cfg"}[which]
    argv = ["pseudolabel", "--detections", str(root / "detections"), "--depth", str(root / "depth"),
            "--calib", str(root / "calib"), "--out", str(root / "out")]
    return argv + (["--config", str(path)] if which == "config" else []), path, which


class TestNonRegularTextInputIsDataError:
    """A FIFO or a directory in place of a text input is refused at once, naming it."""

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize("which", ["calib", "detection", "gt", "pred", "config", "losses"])
    def test_refused_without_blocking(self, tmp_path, capsys, which, kind):
        argv, path, what = text_input_case(tmp_path, which)
        path.unlink(missing_ok=True)
        os.mkfifo(path) if kind == "fifo" else path.mkdir()
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=10)
        if worker.is_alive():
            # Blocked opening the FIFO: a writer that opens and closes it lets the run end.
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            worker.join()
            pytest.fail(f"{argv[0]} blocked opening a FIFO {which} file")
        assert codes == [2]
        assert f"cannot read {what} file {path}: not a regular file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFocalRange:
    """A focal length outside geometry.FOCAL_RANGE is refused where it is read, with no numpy warning."""

    def quietly(self, run, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*args)
        assert [str(w.message) for w in caught] == []
        return code

    @pytest.mark.parametrize("fx", ["1e-310", "0.5", "2e6"])
    def test_calibration_focal(self, tmp_path, capsys, fx):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        path = tmp_path / "calib" / "000001.txt"
        path.write_text(f"P0: 700 0 160 0 0 700 120 0 0 0 1 0\nP2: {fx} 0 160 0 0 525.7 120 0 0 0 1 0\n")
        out = tmp_path / "out"
        assert self.quietly(run_pseudolabel, tmp_path, out) == 2
        assert f"{path}:2: focal lengths must be positive and in [1, 1e+06] px, got fx={float(fx)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("focal", ["1e308", "0.5"])
    def test_pseudolabel_virtual_focal(self, tmp_path, capsys, focal):
        fixtures.build_scene(tmp_path, n_images=3, seed=7)
        out = tmp_path / "out"
        assert self.quietly(run_pseudolabel, tmp_path, out, ("--virtual-focal", focal)) == 2
        err = capsys.readouterr().err
        assert "virtual_focal" in err and f"focal={float(focal)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("focal", ["1e308", "1e-310"])
    def test_normalize_focal(self, tmp_path, capsys, focal):
        labels, calib = TestNormalizeCommand().make_labels(tmp_path)
        out = tmp_path / "o"
        assert self.quietly(main, ["normalize", "--labels", str(labels), "--calib", str(calib), "--out", str(out),
                                    "--image-width", "640", "--image-height", "480", "--focal", focal]) == 3
        err = capsys.readouterr().err
        assert "--focal" in err and f"focal={float(focal)}" in err
        assert not out.exists()

    def test_range_bounds_are_accepted(self, tmp_path):
        """A 1 px source focal and a 1e6 px virtual one still label the scene."""
        fixtures.build_scene(tmp_path, n_images=2, seed=7)
        for path in (tmp_path / "calib").iterdir():
            path.write_text("P2: 1 0 160 0 0 1 120 0 0 0 1 0\n")
        assert self.quietly(run_pseudolabel, tmp_path, tmp_path / "out", ("--virtual-focal", "1e6")) == 0


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
