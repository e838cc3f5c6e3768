"""Configuration dataclasses and JSON config-file handling.

A run is a RunConfig plus its inputs: the recording and its ROI source, a
landmark file or a fixed rectangle, which are arguments, not config keys.
Every field has a default; a JSON config file overrides defaults, and CLI
flags override the config file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from decimal import Decimal

# smallest ROI side, in pixels, that ROI clamping and Canny accept
MIN_ROI_SIDE = 8
PROFILE_MODES = ("edges", "full_roi")


def samples(seconds: float, rate: float, name: str) -> int:
    """The one rule that turns a duration into a count: seconds x rate, rounded half to even.

    A product that is not finite raises ValueError naming the field.
    """
    count = seconds * rate
    if not abs(count) <= sys.float_info.max:  # inf, nan or an int past every float
        raise ValueError(f"{name} of {seconds} s at {rate}/s gives no finite count")
    return round(count)


@dataclass
class ScheduleConfig:
    """Sliding-window timing, all in seconds."""

    window_s: float = 20.0
    step_s: float = 1.0
    reest_s: float = 20.0

    def validate(self) -> None:
        if self.step_s <= 0:
            raise ValueError("step_s must be positive")
        if self.window_s < 2 * self.step_s:
            raise ValueError("window_s must be at least 2*step_s")
        if self.reest_s <= 0:
            raise ValueError("reest_s must be positive")


@dataclass
class CannyConfig:
    """Edge detector parameters (thresholds on the raw Sobel magnitude scale)."""

    sigma: float = 1.4
    low: float = 50.0
    high: float = 100.0
    dilation_radius: int = 2

    def validate(self) -> None:
        if not 0 < 3 * self.sigma <= sys.float_info.max:
            raise ValueError("sigma must be positive, with a finite blur radius ceil(3*sigma)")
        if not self.low < self.high:
            raise ValueError("canny low threshold must be below high")
        if self.dilation_radius < 0:
            raise ValueError("dilation_radius must be >= 0")


@dataclass
class RoiGeometryConfig:
    """Chest-box geometry relative to the face width (ear-to-ear distance)."""

    k_w: float = 1.0
    k_top: float = 0.5
    k_h: float = 1.5

    def validate(self) -> None:
        if not (self.k_w > 0 and self.k_h > 0):
            raise ValueError("k_w and k_h must be positive")


@dataclass
class BreathingConfig:
    """Signal selection, grouping and peak-analysis parameters."""

    top_frac: float = 0.30
    group_frac: float = 0.05
    smooth_s: float = 0.4
    rr_min: float = 6.0
    rr_max: float = 45.0
    prominence_factor: float = 0.3
    min_peaks: int = 3
    cycles_per_peak: float = 1.0

    def groups(self, n_rows: int) -> tuple[int, int]:
        """(group_size, n_groups) for n_rows ranked rows, exact on the written decimals.

        Rows are floored against the decimal a fraction is written as (100 rows at
        0.29 are 29, not the float's 28), and top_frac / group_frac must be whole.
        """
        (a, b), (c, d) = (Decimal(str(f)).as_integer_ratio()  # exactly a/b, in lowest terms
                          for f in (self.group_frac, self.top_frac))
        n_groups, rest = divmod(c * b, d * a)
        if rest:
            raise ValueError("group_frac must divide top_frac into a whole number of groups")
        group_size = n_rows * a // b
        if group_size < 1:
            raise ValueError(f"too few rows for group_frac {self.group_frac}: {n_rows}")
        return group_size, n_groups

    def validate(self) -> None:
        if not 0 < self.group_frac <= self.top_frac <= 1:
            raise ValueError("need 0 < group_frac <= top_frac <= 1")
        if not 0 <= self.rr_min < self.rr_max:
            raise ValueError("need 0 <= rr_min < rr_max")
        if self.smooth_s < 0:
            raise ValueError("smooth_s must be >= 0")
        if self.prominence_factor < 0:  # a prominence is never negative: this would be a silent 0
            raise ValueError("prominence_factor must be >= 0")
        if self.min_peaks < 2:
            raise ValueError("min_peaks must be >= 2")
        if self.cycles_per_peak <= 0:
            raise ValueError("cycles_per_peak must be positive")


@dataclass
class RunConfig:
    """Union of all pipeline settings for one run."""

    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    canny: CannyConfig = field(default_factory=CannyConfig)
    geometry: RoiGeometryConfig = field(default_factory=RoiGeometryConfig)
    breathing: BreathingConfig = field(default_factory=BreathingConfig)
    profile_mode: str = field(default="edges", metadata={"choices": PROFILE_MODES})
    canonical_len: int = 100

    def validate(self) -> None:
        self.schedule.validate()
        self.canny.validate()
        self.geometry.validate()
        self.breathing.validate()
        if self.profile_mode not in PROFILE_MODES:
            raise ValueError(f"unknown profile_mode {self.profile_mode!r}")
        if self.canonical_len < 2:
            raise ValueError("canonical_len must be >= 2")
        self.breathing.groups(self.canonical_len)  # every window has canonical_len rows

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        apply_overrides(cfg, d, "config")
        return cfg


def apply_overrides(obj, d: dict, where: str, _prefix: str = "") -> None:
    """Set fields of the config dataclass obj from a (possibly partial) nested dict.

    A field whose default is a dataclass is a section and takes a nested dict;
    any other value must fit its default's type (see _fits), else ValueError.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}: {_prefix[:-1] or 'config'} must be an object, not {d!r}")
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in d.items():
        name, f = _prefix + key, fields.get(key)
        if f is None:
            raise ValueError(f"{where}: unknown config key {name}")
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            apply_overrides(getattr(obj, key), value, where, name + ".")
        elif not _fits(default, value):
            raise ValueError(f"{where}: {name} must be {_KINDS[type(default)]}, not {value!r}")
        else:
            setattr(obj, key, [tuple(p) for p in value] if isinstance(default, list) else value)


# what a value must be, by the type of its field's default
_KINDS = {float: "a finite number", int: "an integer", str: "a string",
          type(None): "null or a finite number", list: "a list of finite [start, bpm] pairs"}


def _fits(default, value) -> bool:
    """Whether value fits a field with this default; an int passes for a float."""
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if isinstance(default, list):
        return isinstance(value, list) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(_fits(0.0, v) for v in p)
            for p in value
        )
    if default is None:
        return value is None or finite
    return finite if isinstance(default, float) else type(value) is type(default)


def dump_config(cfg: RunConfig) -> str:
    """Serialize a config so that loading it back reproduces the run exactly."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"
