import ast
import dataclasses
import math
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mono3dkit import dataio
from mono3dkit.dataio import (
    DETECTION_SCHEMA,
    DetectionEntry,
    KittiLabelRecord,
    format_label_line,
    read_calib,
    read_depth,
    read_detections,
    read_labels,
    write_depth,
    write_detections,
    write_label_dir,
    write_labels,
)
from mono3dkit.errors import DataIOError, InvalidIntrinsicsError, ParseError
from mono3dkit.pseudolabel import Detection2D


def record(**overrides):
    base = dict(
        type="Pedestrian",
        truncated=0.0,
        occluded=0,
        alpha=-1.57,
        left=100.25,
        top=50.5,
        right=150.75,
        bottom=180.0,
        h=1.76,
        w=0.66,
        l=0.84,
        x=-3.12,
        y=1.65,
        z=12.34,
        rotation_y=0.79,
        score=0.87,
    )
    base.update(overrides)
    return KittiLabelRecord(**base)


class TestLabels:
    def test_write_read_write_fixpoint(self, tmp_path):
        path = tmp_path / "000000.txt"
        write_labels([record(), record(type="Car", score=None), record(type="WeirdClass")], path)
        first = path.read_bytes()
        write_labels(read_labels(path), path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("n", [0, 3000])
    def test_file_of_any_size_is_read_whole(self, tmp_path, n):
        """An empty file has no records, and one larger than 64 KiB loses none."""
        path = tmp_path / "000000.txt"
        records = [record(x=float(i)) for i in range(n)]
        write_labels(records, path)
        assert read_labels(path) == records

    def test_fifteen_field_line_has_no_score(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("Car 0.00 0 -1.58 0.00 0.00 50.00 50.00 1.50 1.60 3.90 1.00 1.50 10.00 0.00\n")
        [rec] = read_labels(path)
        assert rec.score is None
        assert rec.type == "Car"
        assert rec.z == 10.0

    def test_unknown_class_preserved_verbatim(self, tmp_path):
        path = tmp_path / "a.txt"
        write_labels([record(type="Trolley#7")], path)
        assert read_labels(path)[0].type == "Trolley#7"

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("Car 0.00 0\nCar 0.00 0 1.0\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 1
        assert "15 or 16" in str(err.value)

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "a.txt"
        good = format_label_line(record())
        bad = good.replace("12.34", "twelve")
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("index", range(1, 16))
    def test_each_bad_numeric_field_is_named(self, tmp_path, index):
        path = tmp_path / "a.txt"
        fields = format_label_line(record()).split()
        fields[index] = "bad"
        path.write_text(" ".join(fields) + "\n")
        name = {1: "truncated", 2: "occluded", 15: "score"}.get(index, f"field {index}")
        with pytest.raises(ParseError, match=f"bad {name} value 'bad'") as err:
            read_labels(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "bad, expected",
        [
            ({1: "x", 2: "0.5"}, "bad truncated value 'x'"),
            ({1: "nan", 15: "inf"}, "bad truncated value 'nan'"),
            ({2: "x", 3: "y"}, "bad occluded value 'x'"),
            ({5: "x", 9: "y"}, "bad field 5 value 'x'"),
            ({14: "1e999", 15: "x"}, "bad field 14 value '1e999'"),
        ],
    )
    def test_two_bad_fields_name_the_leftmost(self, tmp_path, bad, expected):
        path = tmp_path / "a.txt"
        fields = format_label_line(record()).split()
        for index, token in bad.items():
            fields[index] = token
        path.write_text(" ".join(fields) + "\n")
        with pytest.raises(ParseError, match=expected):
            read_labels(path)

    def test_fractional_occlusion_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text(format_label_line(record()).replace(" 0 ", " 0.5 ", 1) + "\n")
        with pytest.raises(ParseError):
            read_labels(path)

    def test_serialization_uses_decimal_points(self):
        line = format_label_line(record())
        assert "," not in line
        assert line.split()[1] == "0.00"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            read_labels(tmp_path / "nope.txt")

    def test_records_carry_their_line_but_compare_without_it(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("\n" + format_label_line(record()) + "\n")
        [rec] = read_labels(path)
        assert rec.line == 2
        assert rec == record()

    def test_unencodable_record_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        write_labels([record()], path)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            write_labels([record(), record(type="Fußgänger")], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    @pytest.mark.parametrize(
        "name, value",
        [(f.name, math.inf) for f in dataclasses.fields(KittiLabelRecord) if f.name not in ("type", "occluded", "line")]
        + [("x", -math.inf), ("alpha", math.nan), ("score", math.nan)],
    )
    def test_label_dir_refuses_what_the_reader_refuses(self, tmp_path, name, value):
        """A non-finite number in any float field is refused before the directory
        exists, naming the file and the field."""
        out = tmp_path / "out"
        labels = {out / "000000.txt": [record()], out / "000001.txt": [record(), record(**{name: value})]}
        with pytest.raises(ValueError, match=f"cannot write label file {out / '000001.txt'}: {name} is {value}"):
            write_label_dir(out, labels)
        assert not out.exists()

    def test_label_dir_writes_the_largest_finite_numbers(self, tmp_path):
        """Each field is checked on its own: finite values whose sum overflows pass."""
        big = {f: 1e308 for f in ("truncated", "alpha", "left", "top", "right", "bottom", "x", "y", "z", "rotation_y")}
        records = [record(**big), record(score=None)]
        write_label_dir(tmp_path, {tmp_path / "000000.txt": records})
        assert read_labels(tmp_path / "000000.txt") == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("\n" + format_label_line(record()) + "\n\n")
        assert len(read_labels(path)) == 1


CALIB_TEXT = (
    "P0: 700.0 0.0 320.0 0.0 0.0 700.0 240.0 0.0 0.0 0.0 1.0 0.0\n"
    "P2: 721.5 0.0 609.6 44.9 0.0 721.5 172.9 0.2 0.0 0.0 1.0 0.003\n"
    "R0_rect: 1 0 0 0 1 0 0 0 1\n"
)


class TestCalib:
    def test_parse_and_intrinsics(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT)
        intr = read_calib(path, 1242, 375)
        assert (intr.fx, intr.fy, intr.cx, intr.cy) == (721.5, 721.5, 609.6, 172.9)
        assert (intr.width, intr.height) == (1242, 375)

    def test_last_p2_wins(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT + "P2: 700.0 0.0 600.0 0.0 0.0 710.0 170.0 0.0 0.0 0.0 1.0 0.0\n")
        intr = read_calib(path, 1242, 375)
        assert (intr.fx, intr.fy, intr.cx, intr.cy) == (700.0, 710.0, 600.0, 170.0)

    def test_nonpositive_focal_rejected(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT + "P2: -1.0 0 600 0 0 700 200 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="focal lengths must be positive") as err:
            read_calib(path, 1242, 375)
        assert (err.value.path, err.value.line) == (path, 4)

    @pytest.mark.parametrize("cx, cy", [(1300.0, 200.0), (-0.5, 200.0), (600.0, 375.5), (600.0, -1.0)])
    def test_principal_point_outside_image_rejected(self, tmp_path, cx, cy):
        path = tmp_path / "calib.txt"
        path.write_text(f"P2: 700 0 {cx} 0 0 700 {cy} 0 0 0 1 0\n" + CALIB_TEXT.replace("P2", "P1"))
        with pytest.raises(ParseError, match=rf"principal point \({cx}, {cy}\) outside image 1242x375") as err:
            read_calib(path, 1242, 375)
        assert (err.value.path, err.value.line) == (path, 1)

    def test_missing_camera_entry(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 700 0 320 0 0 700 240 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="calibration has no P2 entry") as err:
            read_calib(path, 640, 480)
        assert err.value.path == path

    def test_garbage_line_rejected_with_position(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: 721.5 0 609.6 0 0 721.5 172.9 0 0 0 one 0\n")
        with pytest.raises(ParseError) as err:
            read_calib(path, 1242, 375)
        assert err.value.line == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_value_on_another_line_rejected(self, tmp_path, value):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT.replace("P0: 700.0", f"P0: {value}"))
        with pytest.raises(ParseError) as err:
            read_calib(path, 1242, 375)
        assert (err.value.path, err.value.line) == (path, 1)

    @pytest.mark.parametrize("width, height", [(0, 375), (1242, -1)])
    def test_nonpositive_image_size_is_the_callers_error(self, tmp_path, width, height):
        path = tmp_path / "calib.txt"
        path.write_text(CALIB_TEXT)
        with pytest.raises(InvalidIntrinsicsError, match=f"image size must be positive, got {width}x{height}") as err:
            read_calib(path, width, height)
        assert not isinstance(err.value, ParseError)
        assert str(path) not in str(err.value)

    def test_image_size_is_checked_before_the_file_is_read(self, tmp_path):
        with pytest.raises(InvalidIntrinsicsError):
            read_calib(tmp_path / "missing.txt", 1242, 0)

    def test_no_projection_entries(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("R0_rect: 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(ParseError, match="no 3x4 projection entries found"):
            read_calib(path, 1242, 375)


class TestDepth:
    def test_round_trip_with_invalid_pixels(self, tmp_path):
        path = tmp_path / "d.dpr"
        values = np.arange(12, dtype=float).reshape(3, 4) + 0.5
        values[1, 2] = np.nan
        values[0, 0] = -3.0
        write_depth(values, path)
        raster = read_depth(path)
        assert raster.width == 4 and raster.height == 3
        valid = np.isfinite(raster.values) & (raster.values > 0)
        assert not valid[1, 2] and not valid[0, 0]
        assert valid.sum() == 10
        assert raster.values[2, 3] == np.float32(11.5)

    def test_values_are_a_read_only_float32_view(self, tmp_path):
        path = tmp_path / "d.dpr"
        values = np.random.default_rng(3).uniform(1.0, 80.0, size=(375, 1242))
        write_depth(values, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            raster = read_depth(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raster.values.dtype == np.float32
        assert not raster.values.flags.owndata and not raster.values.flags.writeable
        # the file's bytes plus small change; a float64 copy alone would be 2x the file
        assert peak < 1.1 * size
        np.testing.assert_array_equal(raster.values, values.astype(np.float32))

    def test_truncated_payload_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "d.dpr"
        write_depth(np.ones((4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataIOError):
            read_depth(path)

    def test_oversized_payload_rejected(self, tmp_path):
        path = tmp_path / "d.dpr"
        write_depth(np.ones((4, 4)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(DataIOError):
            read_depth(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.dpr"
        write_depth(np.ones((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataIOError):
            read_depth(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.dpr"
        path.write_bytes(b"DPR1\x01")
        with pytest.raises(DataIOError):
            read_depth(path)

    def test_empty_file_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "d.dpr"
        path.write_bytes(b"")
        with pytest.raises(DataIOError, match=r"truncated header \(0 bytes\)"):
            read_depth(path)

    def test_values_survive_the_file_being_replaced(self, tmp_path):
        path = tmp_path / "d.dpr"
        values = np.arange(12, dtype=float).reshape(3, 4) + 1.0
        write_depth(values, path)
        raster = read_depth(path)
        write_depth(np.full((5, 7), 9.0), path)
        np.testing.assert_array_equal(raster.values, values.astype(np.float32))
        assert read_depth(path).values.shape == (5, 7)

    def test_values_survive_the_file_being_unlinked(self, tmp_path):
        path = tmp_path / "d.dpr"
        values = np.arange(12, dtype=float).reshape(4, 3) + 1.0
        write_depth(values, path)
        raster = read_depth(path)
        path.unlink()
        np.testing.assert_array_equal(raster.values, values.astype(np.float32))

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_file_is_refused_without_blocking(self, tmp_path, kind):
        path = tmp_path / "d.dpr"
        os.mkfifo(path) if kind == "fifo" else path.mkdir()
        errors = []

        def read():
            try:
                read_depth(path)
            except DataIOError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=read)
        worker.start()
        worker.join(timeout=10)
        if worker.is_alive():
            # A FIFO with no writer blocks a plain open(); a writer that opens and closes it ends the read.
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            worker.join()
            pytest.fail("read_depth blocked opening a FIFO")
        assert errors == [f"cannot read depth file {path}: not a regular file"]

    def test_missing_file_names_it(self, tmp_path):
        path = tmp_path / "d.dpr"
        with pytest.raises(DataIOError, match="cannot read depth file") as err:
            read_depth(path)
        assert str(path) in str(err.value)

    def test_non_2d_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_depth(np.ones(5), tmp_path / "d.dpr")


def entry(cls="Pedestrian", left=10.0, top=20.0, right=50.0, bottom=90.0, score=0.9, yaw=0.3):
    return DetectionEntry(Detection2D(cls, left, top, right, bottom, score), yaw)


class TestDetections:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        images = {"000000": [entry(), entry(cls="Car", yaw=None)], "000001": []}
        write_detections(images, path)
        assert read_detections(path) == images

    def test_missing_header(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"image": "a", "detections": []}\n')
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert err.value.line == 1

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"schema": "%s", "version": 99}\n' % DETECTION_SCHEMA)
        with pytest.raises(ParseError):
            read_detections(path)

    def test_reversed_bbox_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        lines = [
            '{"schema": "%s", "version": 1}' % DETECTION_SCHEMA,
            '{"image": "a", "detections": [{"class": "Car", "bbox": [50, 0, 10, 30], "score": 0.5}]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert err.value.line == 2

    def test_score_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        lines = [
            '{"schema": "%s", "version": 1}' % DETECTION_SCHEMA,
            '{"image": "a", "detections": [{"class": "Car", "bbox": [0, 0, 10, 30], "score": 1.5}]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_detections(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        lines = [
            '{"schema": "%s", "version": 1}' % DETECTION_SCHEMA,
            '{"image": "a", "detections": [], "extra": 1}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_detections(path)

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        lines = [
            '{"schema": "%s", "version": 1}' % DETECTION_SCHEMA,
            '{"image": "a", "detections": []}',
            '{"image": "a", "detections": []}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("image", ["", ".", "..", "../escaped", "a/b", "/abs", "a\0b"])
    def test_image_id_must_be_a_plain_file_name(self, tmp_path, image):
        path = tmp_path / "dets.jsonl"
        write_detections({"a": [], image: [entry()]}, path)
        with pytest.raises(ParseError, match="is not a plain file name") as err:
            read_detections(path)
        assert err.value.line == 3

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        lines = ['{"schema": "%s", "version": 1}' % DETECTION_SCHEMA, "{not json"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert err.value.line == 2


def test_four_helpers_are_the_only_file_access():
    """dataio._open_input is the only place that opens an input file,
    dataio._read_text and dataio._map_bytes the only ones that read what it
    opened, and dataio._write_bytes the one that writes a file."""
    file_calls = {"open", "read", "read_text", "write_text", "read_bytes", "write_bytes", "mmap"}
    found = set()
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        stack = [(node, None) for node in ast.parse(path.read_text()).body]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in file_calls:
                    found.add((path.name, func, name))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found == {
        ("dataio.py", "_open_input", "open"),
        ("dataio.py", "_read_text", "read"),
        ("dataio.py", "_map_bytes", "mmap"),
        ("dataio.py", "_write_bytes", "write_bytes"),
    }


def test_cli_calls_no_private_dataio_helper():
    """cli.py reaches files only through dataio's public readers and writers."""
    source = Path(dataio.__file__).with_name("cli.py").read_text()
    private = sorted(
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "dataio"
        and node.attr.startswith("_")
    )
    assert private == []
