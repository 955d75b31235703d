"""Pipeline configuration: defaults, file parsing, provenance echo.

The config file is plain "key = value" text ('#' starts a comment).
The keys are exactly the fields of :class:`PipelineConfig`, each read as
the type of its default, and ``pseudolabel`` reads every one of them;
unknown keys are rejected so that a typo cannot silently fall back to a
default, and the effective configuration is echoed into every command
summary for reproducibility.  Per-class dimension priors use keys like
``prior.Car = <width> <length> <height>`` (meters).  Each value must be a
finite number (whole for an int key); which values are in range,
:class:`PipelineConfig` and the objects it builds decide.  A rejected
value is reported with its line and key, and :func:`load_config` adds
the file.

The loss-kernel hyperparameters (region-loss weights, smooth-L1
transition and clamp, BCE clip, Dice smoothing) are the kernels' own
keyword defaults and are not config keys, so a config file that names one
is rejected as an unknown key.  ``eval`` always samples 40 recall points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Dict

from .errors import ConfigError
from .geometry import VirtualCameraSpec
from .pseudolabel import ClassPrior, DimensionPrior

__all__ = ["PipelineConfig", "DEFAULT_PRIORS", "load_config", "parse_config_text"]

# Rounded KITTI-scale nominal dimensions (width, length, height in meters).
DEFAULT_PRIORS: Dict[str, ClassPrior] = {
    "Car": ClassPrior(width=1.63, length=3.88, height=1.53),
    "Pedestrian": ClassPrior(width=0.66, length=0.84, height=1.76),
    "Cyclist": ClassPrior(width=0.60, length=1.76, height=1.73),
}

_PRIOR_PREFIX = "prior."


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pseudo-label pipeline, shipped defaults inline."""

    # Shipped defaults of `filter --k` and of region_loss's weights.  Class
    # constants, not config keys: no pseudo-label run reads them.
    outlier_k: ClassVar[float] = 2.0
    lambda_dice: ClassVar[float] = 0.7
    lambda_bce: ClassVar[float] = 0.3

    score_threshold: float = 0.1
    virtual_focal: float = 900.0
    virtual_width: int = 1274
    virtual_height: int = 644
    clamp_alpha: float = 0.5
    clamp_beta: float = 2.0
    depth_window: int = 5
    fallback_grid: int = 5
    priors: Dict[str, ClassPrior] = field(default_factory=lambda: dict(DEFAULT_PRIORS))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ConfigError(f"score_threshold {self.score_threshold} outside [0, 1]")
        if self.depth_window < 1 or self.depth_window % 2 == 0:
            raise ConfigError(f"depth_window must be odd and >= 1, got {self.depth_window}")
        if self.fallback_grid < 1:
            raise ConfigError(f"fallback_grid must be >= 1, got {self.fallback_grid}")
        for keys, build in (
            ("virtual_focal, virtual_width, virtual_height", self.virtual_camera),
            ("clamp_alpha, clamp_beta", self.dimension_prior),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{keys}: {exc}") from None

    def virtual_camera(self) -> VirtualCameraSpec:
        return VirtualCameraSpec(
            focal=self.virtual_focal, width=self.virtual_width, height=self.virtual_height
        )

    def dimension_prior(self) -> DimensionPrior:
        return DimensionPrior(classes=dict(self.priors), alpha=self.clamp_alpha, beta=self.clamp_beta)

    def echo_lines(self):
        """Deterministic key = value dump for output summaries."""
        lines = []
        for f in fields(self):
            if f.name == "priors":
                continue
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        for name in sorted(self.priors):
            p = self.priors[name]
            lines.append(f"prior.{name} = {p.width} {p.length} {p.height}")
        return lines


# The type of each scalar key is the type of its default.
_NUMBER_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig) if f.name != "priors"}


def _parse_entry(cfg: PipelineConfig, key: str, raw: str) -> dict:
    """The field override that the line `key = raw` makes on `cfg`."""
    if key.startswith(_PRIOR_PREFIX):
        cls = key[len(_PRIOR_PREFIX) :]
        if not cls:
            raise ValueError("empty class name")
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"prior needs 'width length height', got {raw!r}")
        return {"priors": {**cfg.priors, cls: ClassPrior(*(float(p) for p in parts))}}
    kind = _NUMBER_TYPES.get(key)
    if kind is None:
        raise ValueError("unknown config key")
    value = float(raw)
    # float() also reads "nan", "inf" and "1e999"; none is a usable value.
    if not math.isfinite(value) or (kind is int and not value.is_integer()):
        raise ValueError(f"bad value {raw!r}")
    return {key: kind(value)}


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse config text on top of `base` (defaults when omitted).

    Each line is applied as it is read, so a value that :class:`PipelineConfig`
    rejects is reported with its line and key.
    """
    cfg = base if base is not None else PipelineConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        try:
            cfg = replace(cfg, **_parse_entry(cfg, key, raw_value.strip()))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return cfg


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
