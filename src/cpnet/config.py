"""Run configuration: one dataclass, one flat text format.

The file format is UTF-8 lines of ``key = value`` with ``#`` comments.
Every field of TrainConfig is a key; unknown keys are errors (they are
always typos).  Serialization writes every field, so parse(serialize(c))
reproduces c exactly and a config embedded in a checkpoint rebuilds the
same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    # model
    num_classes: int = 4
    widths: tuple = (16, 32, 64, 64, 64)
    c1: int = 16  # aggregation output width; kept narrow so the context
    # channels do not drown the backbone features in the concatenated head
    k: int = 11
    use_context_prior: bool = True

    # optimization
    crop: int = 32
    batch_size: int = 8
    total_iterations: int = 2000
    base_lr: float = 0.02
    poly_power: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 1e-4

    # loss weights
    lambda_s: float = 1.0
    lambda_a: float = 0.4
    lambda_p: float = 1.0
    lambda_u: float = 1.0
    lambda_g: float = 1.0

    # data
    seed: int = 0
    scene_size: int = 32
    shapes_per_image: int = 2
    noise_std: float = 0.015
    shadow_prob: float = 0.1
    min_shape: int = 12
    max_shape: int = 24
    flip_prob: float = 0.5
    aug_scales: tuple = (0.5, 0.75, 1.0, 1.5, 1.75, 2.0)
    val_scenes: int = 64

    # evaluation: upscale-only averaging, because at a 32 px scene the
    # stride-8 feature grid is 4x4 and boundary precision comes almost
    # entirely from evaluating enlarged copies
    eval_scales: tuple = (2.0, 2.5, 3.0)
    eval_flip: bool = True

    # bookkeeping
    log_every: int = 1
    eval_every: int = 500
    checkpoint_every: int = 500

    def validate(self) -> None:
        """Raise ConfigError for a config that cannot train or evaluate."""
        for keys, ok, need in _RULES:
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key} must be {need}")
        if not self.min_shape <= self.max_shape <= self.scene_size:
            # a larger shape would only be clipped to the scene by _draw_shape
            raise ConfigError("max_shape must be in [min_shape, scene_size]")


# Largest crop and scene side in pixels, above the 512-769 px crops used on
# the paper's benchmarks.  Unbounded, a side numpy cannot allocate would
# pass validation and fail in scene generation.
MAX_SIDE = 1024
MAX_CLASSES = 8  # one colour each in data.PALETTE, which config cannot import

# (fields, test, requirement) for TrainConfig.validate; NaN fails every test
_RULES = (
    (("crop", "scene_size"), lambda v: 8 <= v <= MAX_SIDE and v % 8 == 0,
     f"a multiple of 8 in [8, {MAX_SIDE}]"),
    (("widths",), lambda v: len(v) == 5 and min(v) >= 1, "5 positive entries"),
    (("num_classes",), lambda v: 2 <= v <= MAX_CLASSES, f"in [2, {MAX_CLASSES}]"),
    (("k",), lambda v: v >= 1 and v % 2 == 1, "odd and positive"),
    (("c1", "batch_size", "min_shape", "val_scenes"), lambda v: v >= 1, "at least 1"),
    (("total_iterations", "shapes_per_image", "log_every", "eval_every", "checkpoint_every"),
     lambda v: v >= 0, "non-negative"),
    (("base_lr",), lambda v: 0 < v < math.inf, "positive and finite"),
    (("aug_scales", "eval_scales"), lambda v: v and all(0 < s < math.inf for s in v),
     "non-empty, positive and finite"),
    (("poly_power", "momentum", "weight_decay", "noise_std", "lambda_s", "lambda_a", "lambda_p",
      "lambda_u", "lambda_g"), lambda v: 0 <= v < math.inf, "non-negative and finite"),
    (("flip_prob", "shadow_prob"), lambda v: 0 <= v <= 1, "in [0, 1]"),
    (("seed",), lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)"),  # rng reads it mod 2**64
)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(_format_value(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _parse_value(text: str, template):
    if isinstance(template, bool):
        low = text.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {text!r}")
        return low == "true"
    if isinstance(template, (int, float)):
        return type(template)(text)
    parts = [p.strip() for p in text.split(",") if p.strip()]  # a tuple field
    return tuple(_parse_value(p, template[0]) for p in parts)


def serialize_config(cfg: TrainConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}  # each value's type


def _assign(cfg: TrainConfig, key: str, value: str) -> None:
    """Set ``key`` from the text of a ``key = value`` line."""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        setattr(cfg, key, _parse_value(value, _DEFAULTS[key]))
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from None


def parse_config(text: str) -> TrainConfig:
    cfg = TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            _assign(cfg, key.strip(), value.strip())
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
    cfg.validate()
    return cfg


def override(cfg: TrainConfig, key: str, value: str) -> TrainConfig:
    """A validated copy of ``cfg`` with ``key`` set from ``value`` as a
    config line would set it."""
    cfg = replace(cfg)
    _assign(cfg, key, value)
    cfg.validate()
    return cfg


def load_config(path: str) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_config(text)
