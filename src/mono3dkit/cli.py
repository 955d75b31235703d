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
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import dataio, eval3d, geometry, kernels, pseudolabel
from .config import _NUMBER_TYPES, PipelineConfig, load_config
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


def _gather_detections(det_dir: Path):
    images = {}
    for f in dataio.input_files(det_dir, "*.jsonl", "detection"):
        for image, entries in dataio.read_detections(f).items():
            if image in images:
                raise DataIOError(f"image {image!r} appears in more than one detection file")
            images[image] = entries
    return images


def _label_record(entry: pseudolabel.PseudoLabel) -> dataio.KittiLabelRecord:
    box = entry.box
    left, top, right, bottom = entry.bbox
    return dataio.KittiLabelRecord(
        type=box.class_id,
        truncated=0.0,
        occluded=0,
        alpha=_alpha(box.yaw, box.x, box.z),
        left=left,
        top=top,
        right=right,
        bottom=bottom,
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
    det_dir = dataio.input_dir(args.detections, "detections")
    depth_dir = dataio.input_dir(args.depth, "depth")
    calib_dir = dataio.input_dir(args.calib, "calib")
    out_dir = Path(args.out)
    dataio.check_out_dir(out_dir, {"--detections": det_dir, "--depth": depth_dir, "--calib": calib_dir})
    cfg = _load_pipeline_config(args)

    images = _gather_detections(det_dir)
    image_ids = sorted(images)
    spec = cfg.virtual_camera()
    prior = cfg.dimension_prior()

    totals = pseudolabel.LabelingDiagnostics()
    labels = {}
    for image_id in image_ids:
        depth = dataio.read_depth(depth_dir / f"{image_id}.dpr")
        intr = dataio.read_calib(calib_dir / f"{image_id}.txt", depth.width, depth.height)
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
        labels[out_dir / f"{image_id}.txt"] = [_label_record(e) for e in result.labels]
        for f in fields(totals):
            setattr(totals, f.name, getattr(totals, f.name) + getattr(result.diagnostics, f.name))
    dataio.write_label_dir(out_dir, labels)

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


# An eval row's columns, in stdout and report order: EvalResult field,
# stdout heading and stdout width.
_ROW_COLUMNS = (
    ("ap", "AP%", 8),
    ("num_gt", "gt", 6),
    ("num_predictions", "pred", 6),
    ("matched", "tp", 6),
    ("false_positives", "fp", 6),
    ("ignored_predictions", "ignored", 9),
)


def _records_to_boxes(path, class_name):
    """The `class_name` records of label file `path`, their boxes and their 2D
    bboxes; a record that :class:`Box3D` rejects is a :class:`ParseError` naming `path`."""
    records = [rec for rec in dataio.read_labels(path) if rec.type == class_name]
    boxes, bboxes = [], []
    for rec in records:
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
    return records, boxes, bboxes


def cmd_eval(args) -> int:
    pred_dir = dataio.input_dir(args.pred, "prediction")
    gt_dir = dataio.input_dir(args.gt, "ground-truth")
    iou = args.iou if args.iou is not None else (0.5 if args.metric == "bbox2d" else 0.7)
    cfg = eval3d.MatchConfig(iou_threshold=iou, metric=args.metric)

    frames, gates = [], []
    for gt_path in dataio.input_files(gt_dir, "*.txt", "label"):
        gt_records, gts, gt_bboxes = _records_to_boxes(gt_path, args.class_name)
        _, preds, pred_bboxes = _records_to_boxes(pred_dir / gt_path.name, args.class_name)
        frames.append(eval3d.EvalFrame(preds=preds, gts=gts, pred_bboxes=pred_bboxes, gt_bboxes=gt_bboxes))
        gates.append([(r.bottom - r.top, r.occluded, r.truncated) for r in gt_records])
    rows = eval3d.difficulty_rows(frames, gates, cfg)

    print(f"class={args.class_name} metric={args.metric} iou={iou:.2f} recall_points={cfg.recall_points}")
    print(f"{'difficulty':<12}" + "".join(f"{heading:>{width}}" for _, heading, width in _ROW_COLUMNS))
    for name, row in rows.items():
        cells = ((getattr(row, field), width) for field, _, width in _ROW_COLUMNS)
        print(f"{name:<12}" + "".join(f"{v:>{w}.2f}" if isinstance(v, float) else f"{v:>{w}}" for v, w in cells))
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
            "rows": {name: {field: getattr(row, field) for field, _, _ in _ROW_COLUMNS} for name, row in rows.items()},
        }
        dataio.write_report(payload, args.report)
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
        dataio.write_report(payload, args.report)
    return 0 if all_pass else 3


# ---------------------------------------------------------------------- stats


def cmd_stats(args) -> int:
    pred_dir = dataio.input_dir(args.pred, "prediction")
    boxes = []
    for path in dataio.input_files(pred_dir, "*.txt", "label"):
        boxes += _records_to_boxes(path, args.class_name)[1]
    if not boxes:
        raise EmptyInputError(f"no {args.class_name!r} boxes in {pred_dir}")
    stats = eval3d.height_histogram(boxes, bin_width=args.bin_width)
    if args.out:
        dataio.write_histogram(stats.bin_centers(), stats.counts, args.out)
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
    names, values = dataio.read_losses(args.losses)
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
    to_pixel = vintr.source_pixel if invert else vintr.pixel
    left, top = to_pixel(rec.left, rec.top)
    right, bottom = to_pixel(rec.right, rec.bottom)
    out = replace(rec, left=left, top=top, right=right, bottom=bottom)
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
    label_dir = dataio.input_dir(args.labels, "label")
    calib_dir = dataio.input_dir(args.calib, "calib")
    out_dir = Path(args.out)
    dataio.check_out_dir(out_dir, {"--labels": label_dir, "--calib": calib_dir})
    spec = geometry.VirtualCameraSpec(focal=args.focal, width=args.width, height=args.height)
    for flag, size in (("--image-width", args.image_width), ("--image-height", args.image_height)):
        if size <= 0:
            raise InvalidIntrinsicsError(f"{flag} must be positive, got {size}")

    labels = {}
    for label_path in dataio.input_files(label_dir, "*.txt", "label"):
        intr = dataio.read_calib(calib_dir / label_path.name, args.image_width, args.image_height)
        vintr = geometry.make_virtual_intrinsics(intr, spec)
        labels[out_dir / label_path.name] = [
            _transform_record(rec, intr, spec, vintr, args.invert)
            for rec in dataio.read_labels(label_path)
        ]
    dataio.write_label_dir(out_dir, labels)
    _echo(
        [f"files = {len(labels)}", f"direction = {'from-virtual' if args.invert else 'to-virtual'}"],
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


def _add_pseudolabel(sub) -> None:
    p = sub.add_parser("pseudolabel", help="generate KITTI labels from detections + depth + calib")
    p.add_argument("--detections", required=True, help="directory of *.jsonl detection files")
    p.add_argument("--depth", required=True, help="directory of <image>.dpr depth rasters")
    p.add_argument("--calib", required=True, help="directory of <image>.txt calibration files")
    p.add_argument("--out", required=True, help="output label directory")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    for name, kind in _NUMBER_TYPES.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)
    p.set_defaults(func=cmd_pseudolabel)


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="KITTI-protocol AP over label directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--class-name", dest="class_name", required=True)
    p.add_argument("--metric", choices=list(eval3d.METRICS), default="3d")
    p.add_argument("--iou", type=float, default=None, help="default 0.7 (0.5 for bbox2d)")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_eval)


def _seed(text: str) -> int:
    """A --seed value, >= 0: `random` seeds an int by its absolute value, so
    -1 would alias 1 wherever the seed is used as an int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_gradcheck(sub) -> None:
    p = sub.add_parser("gradcheck", help="finite-difference check of every kernel gradient")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_gradcheck)


def _add_stats(sub) -> None:
    p = sub.add_parser("stats", help="height histogram of predicted boxes")
    p.add_argument("--pred", required=True)
    p.add_argument("--class-name", dest="class_name", required=True)
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.05)
    p.add_argument("--out", default=None, help="write 'bin-center count' columns here")
    p.set_defaults(func=cmd_stats)


def _add_filter(sub) -> None:
    p = sub.add_parser("filter", help="robust outlier filtering of a loss list")
    p.add_argument("--losses", required=True, help="file of 'loss' or 'name loss' lines")
    p.add_argument("--k", type=float, default=PipelineConfig.outlier_k)
    p.set_defaults(func=cmd_filter)


def _add_normalize(sub) -> None:
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


# Subcommand name -> the function that adds its subparser, in help order.
_SUBCOMMANDS = {
    "pseudolabel": _add_pseudolabel,
    "eval": _add_eval,
    "gradcheck": _add_gradcheck,
    "stats": _add_stats,
    "filter": _add_filter,
    "normalize": _add_normalize,
}


def build_parser(command=None) -> _Parser:
    """The CLI parser with every subcommand, or with only `command`'s.

    A subparser parses, helps and fails the same either way; building one
    instead of six spares each command the others' argparse setup.
    """
    parser = _Parser(prog="mono3dkit", description=__doc__)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")
    for add in _SUBCOMMANDS.values() if command is None else (_SUBCOMMANDS[command],):
        add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Anything but a subcommand name first (--help, nothing, a typo) gets all six.
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.func is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone (`| head`); dataio reports its own OSErrors.
        # Exit as a process killed by SIGPIPE.  With sys.stdout None, print()
        # writes nothing and the exit flush skips the dead pipe.
        sys.stdout = None
        return 141
    except (ParseError, DataIOError, ConfigError, EmptyInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ValueError, KeyError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
