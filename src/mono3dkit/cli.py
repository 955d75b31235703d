"""Command-line front end binding the library into an offline workflow.

Subcommands: pseudolabel (detections + depth + calib -> KITTI labels),
eval (KITTI-protocol AP tables), gradcheck (finite-difference sweep),
stats (predicted-height histogram), filter (robust loss filtering) and
normalize (virtual-space conversion of a label directory).

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed files), 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio, eval3d, geometry, kernels, pseudolabel
from .config import PipelineConfig, load_config
from .errors import ConfigError, DataIOError, EmptyInputError, InvalidIntrinsicsError, ParseError, PipelineError

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _alpha(rotation_y: float, x: float, z: float) -> float:
    """KITTI observation angle of a box at (x, z) with yaw `rotation_y`."""
    return geometry.wrap_angle(rotation_y - math.atan2(x, z))


def _echo(lines, header="config"):
    print(f"[{header}]")
    for line in lines:
        print(line)


# ---------------------------------------------------------------- pseudolabel


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(cfg) if getattr(args, f.name, None) is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _read_intrinsics(calib_path: Path, width: int, height: int) -> geometry.CameraIntrinsics:
    """P2 intrinsics from a calibration file; intrinsics it cannot yield are a ParseError naming it."""
    calib = dataio.read_calib(calib_path)
    try:
        return calib.intrinsics(width, height)
    except (InvalidIntrinsicsError, DataIOError) as exc:
        raise ParseError(str(exc), path=calib_path) from None


def _gather_detections(det_dir: Path):
    files = sorted(det_dir.glob("*.jsonl"))
    images = {}
    for f in files:
        parsed = dataio.read_detections(f)
        for image, entries in parsed.images.items():
            if image in images:
                raise DataIOError(f"image {image!r} appears in more than one detection file")
            images[image] = entries
    return images


def _label_record(entry: pseudolabel.PseudoLabel, sx: float, sy: float) -> dataio.KittiLabelRecord:
    box, det = entry.box, entry.source
    return dataio.KittiLabelRecord(
        type=box.class_id,
        truncated=0.0,
        occluded=0,
        alpha=_alpha(box.yaw, box.x, box.z),
        left=det.left * sx,
        top=det.top * sy,
        right=det.right * sx,
        bottom=det.bottom * sy,
        h=box.h,
        w=box.w,
        l=box.l,
        x=box.x,
        y=box.y,
        z=box.z,
        rotation_y=box.yaw,
        score=box.score,
    )


def cmd_pseudolabel(args) -> int:
    cfg = _load_pipeline_config(args)
    det_dir, depth_dir = Path(args.detections), Path(args.depth)
    calib_dir, out_dir = Path(args.calib), Path(args.out)
    for d, what in ((det_dir, "detections"), (depth_dir, "depth"), (calib_dir, "calib")):
        if not d.is_dir():
            raise DataIOError(f"{what} directory {d} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)

    images = _gather_detections(det_dir)
    image_ids = sorted(images)
    spec = cfg.virtual_camera()
    prior = cfg.dimension_prior()

    totals = pseudolabel.LabelingDiagnostics()
    written = []
    try:
        for image_id in image_ids:
            depth = dataio.read_depth(depth_dir / f"{image_id}.dpr")
            intr = _read_intrinsics(calib_dir / f"{image_id}.txt", depth.width, depth.height)
            entries = images[image_id]
            result = pseudolabel.generate_pseudo_labels(
                [e.detection for e in entries],
                depth,
                [0.0 if e.yaw is None else e.yaw for e in entries],
                intr,
                spec,
                prior,
                score_threshold=cfg.score_threshold,
                depth_window=cfg.depth_window,
                fallback_grid=cfg.fallback_grid,
            )
            vintr = result.virtual_intrinsics
            out_path = out_dir / f"{image_id}.txt"
            dataio.write_labels([_label_record(e, vintr.sx, vintr.sy) for e in result.labels], out_path)
            written.append(out_path)
            for f in fields(totals):
                setattr(totals, f.name, getattr(totals, f.name) + getattr(result.diagnostics, f.name))
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise

    _echo(
        [
            f"images = {len(image_ids)}",
            f"emitted = {totals.n_emitted}",
            f"below_threshold = {totals.n_below_threshold}",
            f"no_depth = {totals.n_no_depth}",
            f"no_prior = {totals.n_no_prior}",
            f"conflicts = {totals.n_conflict}",
        ],
        header="summary",
    )
    _echo(cfg.echo_lines())
    return 0


# ----------------------------------------------------------------------- eval


def _records_to_boxes(records, class_name, path):
    """Boxes and 2D bboxes of the `class_name` records read from `path`; a
    record that :class:`Box3D` rejects is a :class:`ParseError` naming `path`."""
    boxes, bboxes = [], []
    for rec in records:
        if rec.type != class_name:
            continue
        try:
            box = pseudolabel.Box3D(
                class_id=rec.type,
                x=rec.x,
                y=rec.y,
                z=rec.z,
                h=rec.h,
                w=rec.w,
                l=rec.l,
                yaw=rec.rotation_y,
                score=rec.score if rec.score is not None else 1.0,
            )
        except ValueError as exc:
            raise ParseError(f"{rec.type} label: {exc}", path=path, line=rec.line) from exc
        boxes.append(box)
        bboxes.append((rec.left, rec.top, rec.right, rec.bottom))
    return boxes, bboxes


def cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    for d, what in ((pred_dir, "prediction"), (gt_dir, "ground-truth")):
        if not d.is_dir():
            raise DataIOError(f"{what} directory {d} does not exist")
    iou = args.iou if args.iou is not None else (0.5 if args.metric == "bbox2d" else 0.7)
    cfg = eval3d.MatchConfig(iou_threshold=iou, metric=args.metric)

    gt_files = sorted(gt_dir.glob("*.txt"))
    gt_records_per_image, frames_all = [], []
    for gt_path in gt_files:
        pred_path = pred_dir / gt_path.name
        gt_records = [r for r in dataio.read_labels(gt_path) if r.type == args.class_name]
        pred_records = dataio.read_labels(pred_path)
        gts, gt_bboxes = _records_to_boxes(gt_records, args.class_name, gt_path)
        preds, pred_bboxes = _records_to_boxes(pred_records, args.class_name, pred_path)
        gt_records_per_image.append(gt_records)
        frames_all.append(
            eval3d.EvalFrame(preds=preds, gts=gts, pred_bboxes=pred_bboxes, gt_bboxes=gt_bboxes)
        )

    # The difficulty rows differ only in which ground truths they ignore,
    # so all four share one IoU matrix per frame.
    ious = [eval3d.iou_matrix(frame, cfg.metric) for frame in frames_all]
    rows = {}
    for level, name in enumerate(eval3d.DIFFICULTY_NAMES):
        frames = []
        for frame, gt_records in zip(frames_all, gt_records_per_image):
            ignored = np.array(
                [
                    not eval3d.matches_difficulty(r.bottom - r.top, r.occluded, r.truncated, level)
                    for r in gt_records
                ],
                dtype=bool,
            )
            frames.append(replace(frame, gt_ignored=ignored))
        rows[name] = eval3d.ap_r40_frames(frames, cfg, ious)
    rows["all"] = eval3d.ap_r40_frames(frames_all, cfg, ious)

    print(f"class={args.class_name} metric={args.metric} iou={iou:.2f} recall_points={cfg.recall_points}")
    print(f"{'difficulty':<12}{'AP%':>8}{'gt':>6}{'pred':>6}{'tp':>6}{'fp':>6}{'ignored':>9}")
    for name in (*eval3d.DIFFICULTY_NAMES, "all"):
        r = rows[name]
        print(
            f"{name:<12}{r.ap:>8.2f}{r.num_gt:>6}{r.num_predictions:>6}"
            f"{r.matched:>6}{r.false_positives:>6}{r.ignored_predictions:>9}"
        )
    _echo(
        [
            f"class_name = {args.class_name}",
            f"metric = {args.metric}",
            f"iou_threshold = {iou}",
            f"recall_points = {cfg.recall_points}",
        ]
    )

    if args.report:
        payload = {
            "class": args.class_name,
            "metric": args.metric,
            "iou_threshold": iou,
            "recall_points": cfg.recall_points,
            "rows": {
                name: {
                    "ap": rows[name].ap,
                    "num_gt": rows[name].num_gt,
                    "num_predictions": rows[name].num_predictions,
                    "matched": rows[name].matched,
                    "false_positives": rows[name].false_positives,
                    "ignored_predictions": rows[name].ignored_predictions,
                }
                for name in rows
            },
        }
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------------ gradcheck


def cmd_gradcheck(args) -> int:
    results = kernels.run_gradient_suite(seed=args.seed, points=args.points)
    bound = kernels.GRADIENT_ERROR_BOUND
    all_pass = True
    for name in sorted(results):
        ok = results[name] < bound
        all_pass &= ok
        print(f"{name:<18} max_rel_error={results[name]:.3e} {'PASS' if ok else 'FAIL'}")
    _echo([f"seed = {args.seed}", f"points = {args.points}", f"bound = {bound}"])
    if args.report:
        payload = {
            "seed": args.seed,
            "points": args.points,
            "bound": bound,
            "kernels": {
                name: {"max_rel_error": err, "passed": err < bound} for name, err in results.items()
            },
            "passed": all_pass,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all_pass else 3


# ---------------------------------------------------------------------- stats


def cmd_stats(args) -> int:
    pred_dir = Path(args.pred)
    if not pred_dir.is_dir():
        raise DataIOError(f"prediction directory {pred_dir} does not exist")
    files = sorted(pred_dir.glob("*.txt"))
    if not files:
        raise DataIOError(f"no label files in {pred_dir}")
    boxes = []
    for path in files:
        boxes += _records_to_boxes(dataio.read_labels(path), args.class_name, path)[0]
    if not boxes:
        raise EmptyInputError(f"no {args.class_name!r} boxes in {pred_dir}")
    stats = eval3d.height_histogram(boxes, bin_width=args.bin_width)
    if args.out:
        lines = [
            f"{center:.6f} {count}"
            for center, count in zip(stats.bin_centers(), stats.counts)
        ]
        Path(args.out).write_text("".join(line + "\n" for line in lines))
    _echo(
        [
            f"count = {stats.count}",
            f"mean = {stats.mean:.6f}",
            f"median = {stats.median:.6f}",
            f"variance = {stats.variance:.6e}",
        ],
        header="summary",
    )
    _echo([f"class_name = {args.class_name}", f"bin_width = {args.bin_width}"])
    return 0


# --------------------------------------------------------------------- filter


def cmd_filter(args) -> int:
    path = Path(args.losses)
    text = dataio._read_text(path, "losses", "utf-8")
    names, values = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            names.append(str(len(values)))
            raw = tokens[0]
        elif len(tokens) == 2:
            names.append(tokens[0])
            raw = tokens[1]
        else:
            raise ParseError(f"expected 'loss' or 'name loss', got {line!r}", path=path, line=lineno)
        values.append(dataio._parse_float(raw, path, lineno, "loss"))
    keep, tau = kernels.outlier_filter(values, k=args.k)
    print(f"tau = {tau:.6f}")
    for name, value, kept in zip(names, values, keep):
        print(f"{'keep' if kept else 'drop'} {name} {value:.6f}")
    _echo(
        [f"kept = {int(keep.sum())}", f"dropped = {int((~keep).sum())}"],
        header="summary",
    )
    _echo([f"k = {args.k}"])
    return 0


# ------------------------------------------------------------------ normalize


def _transform_record(rec, intr, spec, vintr, invert):
    if invert:
        sx, sy = 1.0 / vintr.sx, 1.0 / vintr.sy
    else:
        sx, sy = vintr.sx, vintr.sy
    out = replace(
        rec,
        left=rec.left * sx,
        top=rec.top * sy,
        right=rec.right * sx,
        bottom=rec.bottom * sy,
    )
    if rec.z <= 0:
        # Placeholder entries (e.g. DontCare) carry no usable location.
        return out
    if invert:
        u_v, v_v = geometry.project(geometry.CamPoint3(rec.x, rec.y, rec.z), vintr)
        point = geometry.from_virtual(u_v, v_v, rec.z, intr, spec)
    else:
        u, v = geometry.project(geometry.CamPoint3(rec.x, rec.y, rec.z), intr)
        u_v, v_v, z_v = geometry.to_virtual(u, v, rec.z, intr, spec)
        point = geometry.backproject(u_v, v_v, z_v, vintr)
    return replace(
        out,
        x=point.x,
        y=point.y,
        z=point.z,
        alpha=_alpha(rec.rotation_y, point.x, point.z),
    )


def cmd_normalize(args) -> int:
    label_dir, calib_dir, out_dir = Path(args.labels), Path(args.calib), Path(args.out)
    for d, what in ((label_dir, "label"), (calib_dir, "calib")):
        if not d.is_dir():
            raise DataIOError(f"{what} directory {d} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = geometry.VirtualCameraSpec(focal=args.focal, width=args.width, height=args.height)

    count = 0
    for label_path in sorted(label_dir.glob("*.txt")):
        intr = _read_intrinsics(calib_dir / label_path.name, args.image_width, args.image_height)
        vintr = geometry.make_virtual_intrinsics(intr, spec)
        records = [
            _transform_record(rec, intr, spec, vintr, args.invert)
            for rec in dataio.read_labels(label_path)
        ]
        dataio.write_labels(records, out_dir / label_path.name)
        count += 1
    _echo(
        [f"files = {count}", f"direction = {'from-virtual' if args.invert else 'to-virtual'}"],
        header="summary",
    )
    _echo(
        [
            f"focal = {args.focal}",
            f"width = {args.width}",
            f"height = {args.height}",
            f"image_width = {args.image_width}",
            f"image_height = {args.image_height}",
        ]
    )
    return 0


# ----------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="mono3dkit", description=__doc__)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pseudolabel", help="generate KITTI labels from detections + depth + calib")
    p.add_argument("--detections", required=True, help="directory of *.jsonl detection files")
    p.add_argument("--depth", required=True, help="directory of <image>.dpr depth rasters")
    p.add_argument("--calib", required=True, help="directory of <image>.txt calibration files")
    p.add_argument("--out", required=True, help="output label directory")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--score-threshold", dest="score_threshold", type=float, default=None)
    p.add_argument("--virtual-focal", dest="virtual_focal", type=float, default=None)
    p.add_argument("--virtual-width", dest="virtual_width", type=int, default=None)
    p.add_argument("--virtual-height", dest="virtual_height", type=int, default=None)
    p.add_argument("--depth-window", dest="depth_window", type=int, default=None)
    p.add_argument("--fallback-grid", dest="fallback_grid", type=int, default=None)
    p.add_argument("--clamp-alpha", dest="clamp_alpha", type=float, default=None)
    p.add_argument("--clamp-beta", dest="clamp_beta", type=float, default=None)
    p.set_defaults(func=cmd_pseudolabel)

    p = sub.add_parser("eval", help="KITTI-protocol AP over label directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--class-name", dest="class_name", required=True)
    p.add_argument("--metric", choices=list(eval3d.METRICS), default="3d")
    p.add_argument("--iou", type=float, default=None, help="default 0.7 (0.5 for bbox2d)")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every kernel gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="height histogram of predicted boxes")
    p.add_argument("--pred", required=True)
    p.add_argument("--class-name", dest="class_name", required=True)
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.05)
    p.add_argument("--out", default=None, help="write 'bin-center count' columns here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("filter", help="robust outlier filtering of a loss list")
    p.add_argument("--losses", required=True, help="file of 'loss' or 'name loss' lines")
    p.add_argument("--k", type=float, default=PipelineConfig.outlier_k)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("normalize", help="convert a label directory to/from virtual space")
    p.add_argument("--labels", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--image-width", dest="image_width", type=int, required=True)
    p.add_argument("--image-height", dest="image_height", type=int, required=True)
    p.add_argument("--focal", type=float, default=PipelineConfig.virtual_focal)
    p.add_argument("--width", type=int, default=PipelineConfig.virtual_width)
    p.add_argument("--height", type=int, default=PipelineConfig.virtual_height)
    p.add_argument("--invert", action="store_true", help="convert virtual-space labels back")
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.func is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ParseError, DataIOError, ConfigError, EmptyInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ValueError, KeyError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
