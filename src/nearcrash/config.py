"""Engine configuration: one JSON document, every field flag-overridable.

Defaults sit at the midpoints of the ranges that worked in field tuning:
detector confidence 0.4, size windows of 12 samples, center windows of
18, a 3 s height-TTC threshold with the width threshold at 2.25x that,
and a motion band of (-0.75, 0.05).

Every section is a frozen dataclass declared here, `RuleConfig` included,
so `rules` and `ttc` import their settings from this module, which imports
no other package module; `gps` re-exports its `GpsAffine`, the map that
the GPS section extends. Each field is declared once. The
declaration gives the default; the annotation gives the type (an
``int`` rejects floats and booleans, a ``float`` takes a finite number,
ints too, as floats, but not booleans, NaN, infinities or ints beyond
float range, a ``str`` takes only strings, an ``Optional`` also takes
None, a ``Literal`` lists the allowed values, a ``Tuple[X, ...]`` takes
a tuple of X and a record field its record); and ``setting(default,
check, message)`` attaches a bound. The `Checked` base checks the types,
then the bounds, however a record is built. ``DEFAULTS``, the override
flags and ``build_config`` are all read from those fields. Checks across
fields live in the section's ``__post_init__`` and are reported under
the section name. `read_file` reads every JSON file and `read_record`
every JSON record, which it only shapes: its keys, and an object or array
into a record or tuple; the `Record` base writes it back under those keys.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import (
    Any, Callable, Dict, List, Literal, Optional, get_args, get_origin, get_type_hints,
)


class ConfigError(ValueError):
    """A record rejected: a field of the wrong type or out of its bound, or a
    JSON record of the wrong shape. The message carries the field path."""


# get_type_hints evaluates string annotations on every call; do it once a class
_field_types = lru_cache(maxsize=None)(get_type_hints)


def _json_key(f: Field) -> str:
    """A record field's JSON key: its name, or ``metadata["key"]``."""
    return f.metadata.get("key", f.name)


def _written(value: Any) -> Any:
    if is_dataclass(value):
        return {_json_key(f): _written(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_written(v) for v in value]
    return value


class Record:
    """Base of the dataclasses written as JSON: `to_dict` writes each field under
    the key `read_record` reads, a dataclass as an object, a tuple as an array."""

    def to_dict(self) -> dict:
        return _written(self)


class Checked(Record):
    """Base of the records whose annotated types, then `setting` bounds, are
    checked however they are built (a None skips its bound). A subclass with
    checks of its own calls this `__post_init__` first."""

    def __post_init__(self):
        kinds = _field_types(type(self))
        for f in fields(self):
            typed = _typed(getattr(self, f.name), kinds[f.name], _json_key(f))
            object.__setattr__(self, f.name, typed)
        for f in fields(self):
            if "bound" in f.metadata:
                value, (check, message) = getattr(self, f.name), f.metadata["bound"]
                if value is not None and not check(value):
                    raise ConfigError(f"{_json_key(f)}: {message}")


def finite_number(value: Any, path: str) -> float:
    """`value` as a float if it is a finite int or float (numpy's too), not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # False for NaN too
            return value if isinstance(value, float) else float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


_KINDS = {int: "an integer", str: "a string", tuple: "a tuple"}


def _typed(value: Any, kind: Any, path: str) -> Any:
    """Check a value against a field annotation; an int in a float field comes back a float."""
    options = get_args(kind)
    if get_origin(kind) is Literal:
        if value in options:
            return value
        raise ConfigError(f"{path}: must be {' or '.join(map(repr, options))}")
    if type(None) in options:  # Optional[X]
        return None if value is None else _typed(value, options[0], path)
    if kind is float:
        return finite_number(value, path)
    kind = get_origin(kind) or kind  # Tuple[X, ...] -> tuple
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{path}: expected {_KINDS.get(kind, kind.__name__)}, got {value!r}")
    if kind is tuple:
        return tuple(_typed(item, options[0], f"{path}[{i}]") for i, item in enumerate(value))
    return value  # an int, a string or a record


def setting(default: Any, check: Callable[[Any], bool], message: str) -> Any:
    """A field with a bound; `message` says what it is. `MISSING` makes it required."""
    return field(default=default, metadata={"bound": (check, message)})


def positive(default: Any) -> Any:
    return setting(default, lambda v: v > 0, "must be > 0")


def at_least(default: Any, low: int) -> Any:
    return setting(default, lambda v: v >= low, f"must be >= {low}")


def _nonzero(default: float) -> Any:
    return setting(default, lambda v: v != 0, "must be nonzero")


@dataclass(frozen=True)
class FrameGeometry(Checked):
    """Frame size and nominal rate: all the engine knows of the camera."""

    frame_width: float = positive(1280.0)
    frame_height: float = positive(720.0)
    fps: float = positive(24.0)

    @property
    def principal_x(self) -> float:
        return self.frame_width / 2.0


@dataclass(frozen=True)
class TrackerParams(Checked):
    confidence_min: float = setting(0.4, lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
    iou_min: float = setting(0.3, lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
    max_age: int = at_least(5, 0)
    min_hits: int = at_least(3, 1)


@dataclass(frozen=True)
class RegressionParams(Checked):
    size_window_len: int = at_least(12, 2)
    center_window_len: int = at_least(18, 2)

    @property
    def window_capacity(self) -> int:
        """The samples a track keeps: enough for both fits."""
        return max(self.size_window_len, self.center_window_len)


@dataclass(frozen=True)
class RuleConfig(Checked):
    delta: float = 3.0          # height-TTC threshold, seconds
    phi: float = 6.75           # width-TTC threshold, seconds
    alpha: float = -0.75        # motion-product lower bound
    beta: float = 0.05          # motion-product upper bound
    c_los: Optional[float] = None  # center line of sight; None -> principal_x
    cooldown: float = at_least(10.0, 0)  # per-track re-trigger suppression, seconds

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.delta < self.phi):
            raise ValueError(f"need 0 < delta < phi, got delta={self.delta}, phi={self.phi}")
        if not (self.alpha < 0 < self.beta):
            raise ValueError(f"need alpha < 0 < beta, got alpha={self.alpha}, beta={self.beta}")


@dataclass(frozen=True)
class PipelineParams(Checked):
    mode: Literal["offline", "live"] = "offline"
    # also the pre-event span of every event clip
    buffer_seconds: float = positive(10.0)


@dataclass(frozen=True)
class GpsAffine(Checked):
    """Per-axis linear map from device-native to WGS84 degrees.

    The defaults match the receiver used in the field.
    """

    lat_scale: float = _nonzero(1.666)
    lat_offset: float = -31.30174
    lon_scale: float = _nonzero(1.666)
    lon_offset: float = 81.25186

    def invert(self) -> "GpsAffine":
        return GpsAffine(
            lat_scale=1.0 / self.lat_scale,
            lat_offset=-self.lat_offset / self.lat_scale,
            lon_scale=1.0 / self.lon_scale,
            lon_offset=-self.lon_offset / self.lon_scale,
        )


@dataclass(frozen=True)
class GpsParams(GpsAffine):
    """The receiver's map and the trajectory sampling period, seconds."""

    sample_period: float = positive(3.0)


@dataclass(frozen=True)
class EngineConfig(Checked):
    camera: FrameGeometry = FrameGeometry()
    tracker: TrackerParams = TrackerParams()
    regression: RegressionParams = RegressionParams()
    rules: RuleConfig = RuleConfig()
    pipeline: PipelineParams = PipelineParams()
    gps: GpsParams = GpsParams()


DEFAULTS: Dict[str, Dict[str, Any]] = EngineConfig().to_dict()


def _shaped(value: Any, kind: Any, path: str) -> Any:
    """An object in a record field becomes its record, an array in a tuple field its tuple."""
    if is_dataclass(kind):
        return read_record(kind, value, path)
    if get_origin(kind) is not tuple:  # Tuple[X, ...]
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array")
    return tuple(_shaped(v, get_args(kind)[0], f"{path}[{i}]") for i, v in enumerate(value))


def read_record(cls: type, raw: Any, path: str = "") -> Any:
    """Build the `Checked` record `cls` from a JSON object.

    A field's key is its name, or ``metadata["key"]``; a missing key takes
    the field's default, and a field without one is reported missing.
    Unknown and missing keys and the record's own errors (its types and
    bounds) raise `ConfigError` with the path of the offending value.
    """
    where, prefix = (f"{path}: ", f"{path}.") if path else ("", "")
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}expected an object")
    declared = {_json_key(f): f for f in fields(cls)}
    for key in raw:
        if key not in declared:
            raise ConfigError(f"{prefix}{key}: unknown field")
    kinds = _field_types(cls)
    values = {}
    for key, f in declared.items():
        if key in raw:
            values[f.name] = _shaped(raw[key], kinds[f.name], prefix + key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{key}: missing")
    try:
        return cls(**values)
    except ConfigError as exc:  # a field's own error: `<key>: ...`
        raise ConfigError(f"{prefix}{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def build_config(user: Optional[dict] = None) -> EngineConfig:
    """Validate a raw config dict against the section fields and defaults."""
    return read_record(EngineConfig, user or {})


def read_file(path: Any, read: Callable[[Any], Any]) -> Any:
    """`read(value)` of a UTF-8 JSON file; every error but an `OSError` names the file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            value = json.load(fp)
        except ValueError as exc:  # bad UTF-8 too
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return read(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("top level must be an object")
    return value


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> EngineConfig:
    """Load a config file (optional) and apply dotted-path overrides."""
    user = {} if path is None else read_file(path, _object)
    flags = override_flags()
    for dotted, value in (overrides or {}).items():
        if dotted not in flags:
            raise ConfigError(f"{dotted}: unknown field")
        section, leaf = dotted.split(".")
        if isinstance(user.setdefault(section, {}), dict):  # else build_config rejects it
            user[section][leaf] = value
    return build_config(user)


def override_flags() -> List[str]:
    """All dotted override names, for CLI flag generation."""
    return [f"{section}.{name}" for section, names in DEFAULTS.items() for name in names]
