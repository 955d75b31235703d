"""Pipeline configuration: defaults, file parsing, provenance echo.

The config file is plain "key = value" text ('#' starts a comment).
The keys are exactly the fields of :class:`PipelineConfig`, each read as
the type of its default; unknown keys are rejected so that a typo cannot
silently fall back to a default, and the effective configuration is echoed
into every command summary for reproducibility.  Per-class dimension
priors use keys like ``prior.Car = <width> <length> <height>`` (meters).
Each value must be a finite number (whole for an int key); which values
are in range, :class:`PipelineConfig` and :class:`ClassPrior` decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict

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
    """Every tunable of the offline pipeline, shipped defaults inline."""

    score_threshold: float = 0.1
    outlier_k: float = 2.0
    virtual_focal: float = 900.0
    virtual_width: int = 1274
    virtual_height: int = 644
    clamp_alpha: float = 0.5
    clamp_beta: float = 2.0
    depth_window: int = 5
    fallback_grid: int = 5
    lambda_dice: float = 0.7
    lambda_bce: float = 0.3
    smooth_delta: float = 1.0
    consistency_clamp: float = 50.0
    target_depth_std: float = 0.1
    bin_count: int = 80
    depth_min: float = 2.0
    depth_max: float = 46.8
    bce_clip: float = 1e-07
    dice_smooth: float = 1e-06
    priors: Dict[str, ClassPrior] = field(default_factory=lambda: dict(DEFAULT_PRIORS))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ConfigError(f"score_threshold {self.score_threshold} outside [0, 1]")
        if self.outlier_k < 0:
            raise ConfigError(f"outlier_k must be >= 0, got {self.outlier_k}")
        if self.virtual_focal <= 0 or self.virtual_width <= 0 or self.virtual_height <= 0:
            raise ConfigError("virtual camera parameters must be positive")
        if not (0 < self.clamp_alpha <= 1 <= self.clamp_beta):
            raise ConfigError(f"clamp bounds ({self.clamp_alpha}, {self.clamp_beta}) invalid")
        if self.depth_window < 1 or self.depth_window % 2 == 0:
            raise ConfigError(f"depth_window must be odd and >= 1, got {self.depth_window}")
        if self.fallback_grid < 1:
            raise ConfigError(f"fallback_grid must be >= 1, got {self.fallback_grid}")
        if self.lambda_dice < 0 or self.lambda_bce < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.smooth_delta <= 0 or self.consistency_clamp <= 0:
            raise ConfigError("smooth_delta and consistency_clamp must be > 0")
        if self.target_depth_std <= 0:
            raise ConfigError(f"target_depth_std must be > 0, got {self.target_depth_std}")
        if self.bin_count < 1:
            raise ConfigError(f"bin_count must be >= 1, got {self.bin_count}")
        if not self.depth_min < self.depth_max:
            raise ConfigError(f"depth range [{self.depth_min}, {self.depth_max}] is empty")
        if not (0 < self.bce_clip < 0.5):
            raise ConfigError(f"bce_clip must be in (0, 0.5), got {self.bce_clip}")
        if self.dice_smooth <= 0:
            raise ConfigError(f"dice_smooth must be > 0, got {self.dice_smooth}")

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


def _parse_number(key: str, raw: str, lineno):
    kind = _NUMBER_TYPES[key]
    try:
        # float() also reads "nan", "inf" and "1e999"; none is a usable value.
        value = float(raw)
        if not math.isfinite(value) or (kind is int and not value.is_integer()):
            raise ValueError
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for {key}") from None
    return kind(value)


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse config text on top of `base` (defaults when omitted)."""
    base = base if base is not None else PipelineConfig()
    overrides: dict = {}
    priors = dict(base.priors)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key.startswith(_PRIOR_PREFIX):
            cls = key[len(_PRIOR_PREFIX) :]
            if not cls:
                raise ConfigError(f"line {lineno}: empty class name in {key!r}")
            parts = raw_value.split()
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: prior needs 'width length height', got {raw_value!r}")
            try:
                priors[cls] = ClassPrior(*(float(p) for p in parts))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad {key} = {raw_value!r}: {exc}") from None
        elif key in _NUMBER_TYPES:
            overrides[key] = _parse_number(key, raw_value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
    return replace(base, priors=priors, **overrides)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
