"""Readers and writers for every file format crossing the toolkit boundary.

Formats:

* KITTI object labels: 15 or 16 whitespace-separated fields per line,
  floats at 2 decimal places.  write(read(write(x))) is byte-identical.
* KITTI calibration files: "KEY: v0 v1 ..." lines; the camera intrinsics
  are P2's 3x4 projection matrix at a given image size.
* Detections: JSON-lines with a schema header line, one image per record;
  an image id must be a plain file name (no separator, not `.` or `..`).
* Depth rasters: binary "DPR1" magic, uint32 width/height, little-endian
  float32 payload; non-finite or <= 0 values mark invalid pixels.
* Loss lists: one "loss" or "name loss" line per value.
* Height histograms: one "bin-center count" line per bin.
* JSON reports: sorted keys, two-space indent and a trailing newline.

Readers reject malformed input instead of repairing it, and every parse
error names the file and line.  Every number in a text file must be
finite; which values are valid beyond that, the domain types
(:class:`Detection2D`, :class:`CameraIntrinsics`) decide.  The label
writer refuses what the label reader refuses: :func:`write_label_dir`
raises a ValueError naming the file and field for a non-finite number,
before it writes anything.  All serialization is locale-independent.

Every input is opened by :func:`_open_input` and must be a regular file: a
FIFO, directory, device or pipe (``<(...)``) is a DataIOError, never waited on.
:func:`_read_text` reads a text file, :func:`_map_bytes` maps a depth raster,
and :func:`_write_bytes` replaces a plain file whole via ``<name>.tmp`` and
writes a symlink or a non-regular target (FIFO, device) in place.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import stat
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .errors import DataIOError, InvalidIntrinsicsError, ParseError
from .geometry import CameraIntrinsics, _check_image_size
from .pseudolabel import Detection2D, DepthRaster

__all__ = [
    "KittiLabelRecord",
    "DetectionEntry",
    "DETECTION_SCHEMA",
    "DETECTION_VERSION",
    "DEPTH_MAGIC",
    "input_dir",
    "check_out_dir",
    "input_files",
    "read_labels",
    "write_labels",
    "write_label_dir",
    "read_calib",
    "read_depth",
    "write_depth",
    "read_detections",
    "write_detections",
    "read_losses",
    "write_histogram",
    "write_report",
]

DETECTION_SCHEMA = "mono3dkit-detections"
DETECTION_VERSION = 1
DEPTH_MAGIC = b"DPR1"


@dataclass(frozen=True)
class KittiLabelRecord:
    """One line of a KITTI object label file; `line` is its line number when read from one."""

    type: str
    truncated: float
    occluded: int
    alpha: float
    left: float
    top: float
    right: float
    bottom: float
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    rotation_y: float
    score: Optional[float] = None
    line: Optional[int] = field(default=None, compare=False, repr=False)


@contextlib.contextmanager
def _open_input(path: Path, what: str):
    """A read-only fd of the regular file `path` and its size, closed when the block
    ends; a missing, unreadable or non-regular file is a DataIOError naming it."""
    try:
        # O_NONBLOCK: opening a FIFO with no writer returns at once, for fstat to refuse.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise DataIOError(f"cannot read {what} file {path}: not a regular file")
            yield fd, info.st_size
        finally:
            os.close(fd)
    except OSError as exc:
        raise DataIOError(f"cannot read {what} file {path}: {exc}") from exc


def _map_bytes(path: Path, what: str) -> mmap.mmap | bytes:
    """A read-only map of the regular file `path` (``b""`` if it is empty).
    The map stays valid if the file is replaced or unlinked, not if it is truncated."""
    with _open_input(path, what) as (fd, size):
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ) if size else b""


def _write_bytes(path: Path, data: bytes, what: str) -> None:
    """Write `data` to `path` whole; a failed write is a DataIOError naming `path`."""
    in_place = path.is_symlink() or (path.exists() and not path.is_file())
    target = path if in_place else path.with_name(path.name + ".tmp")
    try:
        target.write_bytes(data)
        if not in_place:
            os.replace(target, path)
    except OSError as exc:
        if not in_place:
            target.unlink(missing_ok=True)
        raise DataIOError(f"cannot write {what} file {path}: {exc}") from exc


def _read_text(path: Path, what: str, encoding: str) -> str:
    """The text of the regular file `path`; an unreadable file is a DataIOError,
    and a byte that is not `encoding` text a ParseError at its line."""
    with _open_input(path, what) as (fd, size):
        # Read to EOF, not to the fstat size: the file may grow while it is read.
        data = b"".join(iter(lambda: os.read(fd, max(size, 1 << 16)), b""))
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode(encoding) + "x").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not {encoding} text", path=path, line=line) from None


def _parse_float(token: str, path, lineno, what: str) -> float:
    try:
        # float() also reads "nan", "inf" and "1e999"; none is a usable value.
        value = float(token)
        if not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise ParseError(f"bad {what} value {token!r}", path=path, line=lineno) from None
    return value


def input_dir(d, what: str) -> Path:
    """The input directory `d`; one that does not exist is a DataIOError naming it as `what`."""
    d = Path(d)
    if not d.is_dir():
        raise DataIOError(f"{what} directory {d} does not exist")
    return d


def check_out_dir(out: Path, inputs) -> None:
    """Refuse an `out` that is the same directory as one of `inputs`, a
    ``{flag: directory}`` map, by ``os.path.samefile``: writing labels there
    would replace the inputs.  A DataIOError naming both flags."""
    for flag, d in inputs.items():
        if out.exists() and os.path.samefile(out, d):
            raise DataIOError(f"--out {out} is the {flag} directory {d}; choose another --out")


def input_files(d: Path, pattern: str, what: str) -> List[Path]:
    """The files in `d` that match `pattern`, sorted; none is a DataIOError naming `d`."""
    files = sorted(d.glob(pattern))
    if not files:
        raise DataIOError(f"no {what} files in {d}")
    return files


# The name each numeric field of a label line has in a ParseError.
_LABEL_FIELD_NAMES = ("truncated", "occluded", *(f"field {i}" for i in range(3, 15)), "score")


def _parse_label_line(line: str, path, lineno: int) -> KittiLabelRecord:
    fields = line.split()
    if len(fields) not in (15, 16):
        raise ParseError(f"expected 15 or 16 fields, got {len(fields)}", path=path, line=lineno)
    values = [_parse_float(tok, path, lineno, name) for tok, name in zip(fields[1:], _LABEL_FIELD_NAMES)]
    if not values[1].is_integer():
        raise ParseError(f"occluded must be an integer, got {fields[2]!r}", path=path, line=lineno)
    score = values[14] if len(values) == 15 else None
    # type, truncated, occluded, alpha .. rotation_y, score, line
    return KittiLabelRecord(fields[0], values[0], int(values[1]), *values[2:14], score, lineno)


def format_label_line(rec: KittiLabelRecord) -> str:
    line = (
        f"{rec.type} {rec.truncated:.2f} {rec.occluded:d} {rec.alpha:.2f} "
        f"{rec.left:.2f} {rec.top:.2f} {rec.right:.2f} {rec.bottom:.2f} "
        f"{rec.h:.2f} {rec.w:.2f} {rec.l:.2f} "
        f"{rec.x:.2f} {rec.y:.2f} {rec.z:.2f} {rec.rotation_y:.2f}"
    )
    if rec.score is not None:
        line += f" {rec.score:.2f}"
    return line


def read_labels(path) -> List[KittiLabelRecord]:
    path = Path(path)
    text = _read_text(path, "label", "ascii")
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        records.append(_parse_label_line(line, path, lineno))
    return records


def write_labels(records, path) -> None:
    body = "".join(format_label_line(rec) + "\n" for rec in records)
    _write_bytes(Path(path), body.encode("ascii"), "label")


def _check_finite(path: Path, records) -> None:
    """Refuse a record that read_labels would refuse for a non-finite number:
    a ValueError naming the label file `path` and the field."""
    for rec in records:
        # 0 * v is 0 for a finite v and NaN for an infinite or NaN one, so one
        # sum per record checks all its floats, with no call per field.
        if (
            0.0 * rec.truncated + 0.0 * rec.alpha + 0.0 * rec.left + 0.0 * rec.top + 0.0 * rec.right
            + 0.0 * rec.bottom + 0.0 * rec.h + 0.0 * rec.w + 0.0 * rec.l + 0.0 * rec.x + 0.0 * rec.y
            + 0.0 * rec.z + 0.0 * rec.rotation_y + (0.0 if rec.score is None else 0.0 * rec.score)
        ) != 0.0:
            name, value = next((f, v) for f, v in vars(rec).items() if isinstance(v, float) and not math.isfinite(v))
            raise ValueError(f"cannot write label file {path}: {name} is {value}, not a finite number")


def write_label_dir(out_dir: Path, labels) -> None:
    """Write each `{path: records}` label file.  Nothing is written, and no
    `out_dir` is created, if a record holds a non-finite number (which
    read_labels would refuse; a ValueError) or if `out_dir` holds a *.txt
    that this run would not write, so no earlier run's label mixes in."""
    for path, records in labels.items():
        _check_finite(path, records)
    stale = sorted(set(out_dir.glob("*.txt")) - labels.keys())
    if stale:
        raise DataIOError(f"{stale[0]} is not a label this run writes; remove it or choose an empty --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, records in labels.items():
        write_labels(records, path)


def read_calib(path, width: int, height: int) -> CameraIntrinsics:
    """P2's pinhole intrinsics at image size `width` x `height`.  Every line
    is parsed; a missing P2, or one that gives invalid intrinsics, is a
    ParseError naming the file (and P2's line).  A non-positive `width` or
    `height` is the caller's, not the file's: it raises
    InvalidIntrinsicsError before the file is read."""
    _check_image_size(width, height)
    path = Path(path)
    text = _read_text(path, "calib", "ascii")
    projections = {}  # key -> (line, 12 row-major values); a repeated key's last line wins
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'KEY: values' line", path=path, line=lineno)
        key, _, rest = line.partition(":")
        values = [_parse_float(tok, path, lineno, key.strip()) for tok in rest.split()]
        if len(values) == 12:
            projections[key.strip()] = lineno, values
    if not projections:
        raise ParseError("no 3x4 projection entries found", path=path)
    if "P2" not in projections:
        raise ParseError("calibration has no P2 entry", path=path)
    lineno, p = projections["P2"]
    try:
        return CameraIntrinsics(fx=p[0], fy=p[5], cx=p[2], cy=p[6], width=width, height=height)
    except InvalidIntrinsicsError as exc:
        raise ParseError(str(exc), path=path, line=lineno) from None


def read_depth(path) -> DepthRaster:
    path = Path(path)
    blob = _map_bytes(path, "depth")
    header = len(DEPTH_MAGIC) + 8
    if len(blob) < header:
        raise DataIOError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[: len(DEPTH_MAGIC)] != DEPTH_MAGIC:
        raise DataIOError(f"{path}: bad magic {blob[:len(DEPTH_MAGIC)]!r}")
    width, height = struct.unpack_from("<II", blob, len(DEPTH_MAGIC))
    if width == 0 or height == 0:
        raise DataIOError(f"{path}: zero raster dimension {width}x{height}")
    expected = width * height * 4
    payload = len(blob) - header
    if payload != expected:
        raise DataIOError(f"{path}: payload is {payload} bytes, expected {expected} for {width}x{height}")
    # A read-only view of the mapped payload: only the pages that the depth
    # windows touch are read.  Validity is decided per depth window.
    values = np.frombuffer(blob, dtype="<f4", count=width * height, offset=header)
    return DepthRaster(values=values.reshape(height, width))


def write_depth(values, path) -> None:
    """Write a depth raster; encode invalid pixels as NaN (or <= 0) values."""
    arr = DepthRaster.from_values(values).values
    height, width = arr.shape
    blob = DEPTH_MAGIC + struct.pack("<II", width, height) + arr.astype("<f4").tobytes()
    _write_bytes(Path(path), blob, "depth")


@dataclass(frozen=True)
class DetectionEntry:
    """One detection of one image, with an optional yaw estimate."""

    detection: Detection2D
    yaw: Optional[float] = None


def _finite_number(value, path, lineno, what: str) -> float:
    """A JSON number as a float; bools, strings, lists, NaN and values beyond the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ParseError(f"{what} must be a finite number, got {value!r}", path=path, line=lineno)
    return float(value)


def _parse_detection_obj(obj, path, lineno) -> DetectionEntry:
    if not isinstance(obj, dict):
        raise ParseError("detection must be a JSON object", path=path, line=lineno)
    unknown = set(obj) - {"class", "bbox", "score", "yaw"}
    if unknown:
        raise ParseError(f"unknown detection keys {sorted(unknown)}", path=path, line=lineno)
    for key in ("class", "bbox", "score"):
        if key not in obj:
            raise ParseError(f"detection missing {key!r}", path=path, line=lineno)
    bbox = obj["bbox"]
    if not (isinstance(bbox, list) and len(bbox) == 4):
        raise ParseError("bbox must be [left, top, right, bottom]", path=path, line=lineno)
    left, top, right, bottom = (_finite_number(v, path, lineno, "bbox edge") for v in bbox)
    score = _finite_number(obj["score"], path, lineno, "score")
    try:
        det = Detection2D(
            class_id=str(obj["class"]), left=left, top=top, right=right, bottom=bottom, score=score
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=lineno) from None
    yaw = obj.get("yaw")
    return DetectionEntry(detection=det, yaw=None if yaw is None else _finite_number(yaw, path, lineno, "yaw"))


def read_detections(path) -> Dict[str, List[DetectionEntry]]:
    path = Path(path)
    lines = _read_text(path, "detection", "utf-8").splitlines()
    if not lines:
        raise ParseError("missing schema header line", path=path, line=1)

    def load(lineno, line):
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer beyond int's digit limit, or nesting beyond the recursion limit
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", path=path, line=lineno) from None

    header = load(1, lines[0])
    if not isinstance(header, dict) or header.get("schema") != DETECTION_SCHEMA:
        raise ParseError(f"first line must declare schema {DETECTION_SCHEMA!r}", path=path, line=1)
    version = header.get("version")
    if version != DETECTION_VERSION:
        raise ParseError(f"unsupported schema version {version!r}", path=path, line=1)

    images: Dict[str, List[DetectionEntry]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = load(lineno, line)
        if not isinstance(record, dict):
            raise ParseError("image record must be a JSON object", path=path, line=lineno)
        unknown = set(record) - {"image", "detections"}
        if unknown:
            raise ParseError(f"unknown record keys {sorted(unknown)}", path=path, line=lineno)
        if "image" not in record or "detections" not in record:
            raise ParseError("record needs 'image' and 'detections'", path=path, line=lineno)
        image = str(record["image"])
        # The id names the depth, calibration and label files: it must not leave their directories.
        if image in ("", ".", "..") or {"/", os.sep, os.altsep, "\0"} & set(image):
            raise ParseError(f"image id {image!r} is not a plain file name", path=path, line=lineno)
        if image in images:
            raise ParseError(f"duplicate image id {image!r}", path=path, line=lineno)
        dets = record["detections"]
        if not isinstance(dets, list):
            raise ParseError("'detections' must be a list", path=path, line=lineno)
        images[image] = [_parse_detection_obj(obj, path, lineno) for obj in dets]
    return images


def write_detections(images: Dict[str, List[DetectionEntry]], path) -> None:
    lines = [json.dumps({"schema": DETECTION_SCHEMA, "version": DETECTION_VERSION})]
    for image in images:
        dets = []
        for entry in images[image]:
            d = entry.detection
            obj = {
                "class": d.class_id,
                "bbox": [d.left, d.top, d.right, d.bottom],
                "score": d.score,
            }
            if entry.yaw is not None:
                obj["yaw"] = entry.yaw
            dets.append(obj)
        lines.append(json.dumps({"image": image, "detections": dets}))
    _write_bytes(Path(path), "".join(line + "\n" for line in lines).encode("utf-8"), "detection")


def read_losses(path):
    """Names and values of 'loss' or 'name loss' lines; an unnamed loss is named by its index."""
    path = Path(path)
    text = _read_text(path, "losses", "utf-8")
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
        values.append(_parse_float(raw, path, lineno, "loss"))
    return names, values


def write_histogram(centers, counts, path) -> None:
    """Write 'bin-center count' lines, one per bin."""
    body = "".join(f"{center:.6f} {count}\n" for center, count in zip(centers, counts))
    _write_bytes(Path(path), body.encode(), "histogram")


def write_report(payload, path) -> None:
    """Write a JSON report: sorted keys, two-space indent, trailing newline."""
    _write_bytes(Path(path), (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(), "report")
