"""Property tests over every reader: an input parses into finite values or is rejected as a data error.

Each reader gets raw bytes and structured near-miss text.  The profile is
derandomized and keeps no example database, so runs are deterministic.
"""

import json
import math
import struct
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from mono3dkit import cli
from mono3dkit.config import PipelineConfig, load_config, parse_config_text
from mono3dkit.dataio import DEPTH_MAGIC, DETECTION_SCHEMA, read_calib, read_depth, read_detections, read_labels
from mono3dkit.errors import ConfigError, DataIOError, ParseError

fuzz = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# Number-like tokens, including every spelling float() reads as non-finite.
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "NaN", "1e999", "-1e999", "1_0", "0", "-0.0", "x", "½", "\xff"]),
)


def token_lines(first, low, high):
    """Up to three lines, each a `first` token followed by `low`..`high` NUMBERS."""
    rest = st.lists(NUMBERS, min_size=low, max_size=high)
    line = st.builds(lambda head, tokens: " ".join([head, *tokens]), first, rest)
    return st.lists(line, max_size=3).map("\n".join)


def encoded(text_strategy):
    return text_strategy.map(lambda text: text.encode("utf-8"))


LABEL_BYTES = st.one_of(
    st.binary(max_size=200), encoded(token_lines(st.sampled_from(["Car", "DontCare", ""]), 13, 16))
)
CALIB_BYTES = st.one_of(
    st.binary(max_size=200), encoded(token_lines(st.sampled_from(["P2:", "P0:", "R0_rect:", "P2"]), 8, 13))
)


def write(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    return path


def finite(*values):
    return all(math.isfinite(v) for v in values)


@fuzz
@given(data=LABEL_BYTES)
def test_labels_parse_finite_or_are_data_errors(tmp_path_factory, data):
    try:
        records = read_labels(write(tmp_path_factory, "labels.txt", data))
    except (ParseError, DataIOError):
        return
    for rec in records:
        numbers = [getattr(rec, f.name) for f in fields(rec) if f.name not in ("type", "line")]
        assert finite(*(v for v in numbers if v is not None))


@fuzz
@given(data=CALIB_BYTES, width=st.integers(1, 2000), height=st.integers(1, 2000))
def test_calib_intrinsics_finite_or_are_data_errors(tmp_path_factory, data, width, height):
    path = write(tmp_path_factory, "calib.txt", data)
    try:
        calib = read_calib(path)
    except (ParseError, DataIOError):
        return
    assert all(finite(*p.ravel().tolist()) for p in calib.projections.values())
    try:
        intr = cli._read_intrinsics(path, width, height)
    except ParseError as exc:
        assert str(path) in str(exc)
        return
    assert finite(intr.fx, intr.fy, intr.cx, intr.cy) and intr.fx > 0 and intr.fy > 0


JSON_VALUES = st.one_of(
    st.integers(-(10**4), 10**4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10**300, 10**320),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
DETECTION = st.fixed_dictionaries(
    {
        "class": st.sampled_from(["Car", "Pedestrian"]),
        "bbox": st.lists(JSON_VALUES, min_size=3, max_size=5),
        "score": JSON_VALUES,
    },
    optional={"yaw": JSON_VALUES, "extra": st.none()},
)
RECORD = st.fixed_dictionaries({"image": st.text(max_size=3), "detections": st.lists(DETECTION, max_size=2)})
RECORD_LINES = st.one_of(
    RECORD.map(json.dumps),
    # an integer past int's digit limit, and nesting past the recursion limit
    st.sampled_from(['{"image": "a", "detections": [' + "1" * 5000 + "]}", "[" * 5000]),
    st.text(max_size=20),
)
DETECTION_BYTES = st.one_of(
    st.binary(max_size=200),
    encoded(
        st.lists(RECORD_LINES, max_size=3).map(
            lambda lines: "\n".join([json.dumps({"schema": DETECTION_SCHEMA, "version": 1}), *lines])
        )
    ),
)


@fuzz
@given(data=DETECTION_BYTES)
def test_detections_parse_valid_or_are_data_errors(tmp_path_factory, data):
    try:
        parsed = read_detections(write(tmp_path_factory, "dets.jsonl", data))
    except (ParseError, DataIOError):
        return
    for entries in parsed.images.values():
        for entry in entries:
            d = entry.detection
            assert finite(d.left, d.top, d.right, d.bottom, d.score)
            assert d.left < d.right and d.top < d.bottom and 0 <= d.score <= 1
            assert entry.yaw is None or finite(entry.yaw)


DEPTH_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda magic, w, h, payload: magic + struct.pack("<II", w, h) + payload,
        st.sampled_from([DEPTH_MAGIC, b"DPR0"]),
        st.one_of(st.integers(0, 4), st.just(2**32 - 1)),
        st.one_of(st.integers(0, 4), st.just(2**32 - 1)),
        st.binary(max_size=72),
    ),
)


@fuzz
@given(data=DEPTH_BYTES)
def test_depth_parses_to_header_shape_or_is_data_error(tmp_path_factory, data):
    try:
        raster = read_depth(write(tmp_path_factory, "depth.dpr", data))
    except DataIOError:
        return
    assert raster.values.shape == struct.unpack_from("<II", data, len(DEPTH_MAGIC))[::-1]


SCALAR_KEYS = st.sampled_from([f.name for f in fields(PipelineConfig) if f.name != "priors"] + ["unknown"])
CONFIG_TEXT = st.lists(
    st.one_of(
        st.builds("{} = {}".format, SCALAR_KEYS, NUMBERS),
        st.builds("prior.{} = {} {} {}".format, st.sampled_from(["Car", "X"]), NUMBERS, NUMBERS, NUMBERS),
        st.sampled_from(["", "# comment", "prior. = 1 1 1", "prior.Car = 1 1", "no equals sign"]),
    ),
    max_size=3,
).map("\n".join)


def assert_finite_config(cfg):
    assert finite(*(getattr(cfg, f.name) for f in fields(cfg) if f.name != "priors"))
    assert all(finite(p.width, p.length, p.height) for p in cfg.priors.values())


@fuzz
@given(text=CONFIG_TEXT)
def test_config_text_parses_finite_or_is_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert_finite_config(cfg)


@fuzz
@given(data=st.one_of(st.binary(max_size=100), encoded(CONFIG_TEXT)))
def test_config_file_parses_finite_or_is_config_error(tmp_path_factory, data):
    try:
        cfg = load_config(write(tmp_path_factory, "run.cfg", data))
    except ConfigError:
        return
    assert_finite_config(cfg)
